(* Tests for the two containment algorithms under the default homomorphic
   semantics: the paper's worked example, hand-built edge cases, the
   published-top-down relaxation, and randomized agreement with the naive
   oracle. *)

module E = Containment.Engine
module S = Containment.Semantics

let hom_mode = S.mode_of S.Containment S.Hom

let run_all inv q =
  let q' = Containment.Query.of_value q in
  let td = Containment.Top_down.run hom_mode inv q' in
  let bu = Containment.Bottom_up.run hom_mode inv q' in
  let naive =
    Containment.Naive.scan ~scope:`Anywhere inv q'
  in
  (td, bu, naive)

let records ?(config = E.default) inv q = (E.query ~config inv q).E.records

let check_records = Alcotest.(check (list int))
let check_nodes = Alcotest.(check Testutil.intset_testable)
let check_bool = Alcotest.(check bool)

(* --- the paper's running example (Sec. 1-3) --- *)

let test_paper_example_all_algorithms () =
  let inv = Containment.Collection.paper_example () in
  let q = Containment.Collection.paper_example_query in
  List.iter
    (fun alg ->
      check_records "Tim only" [ 1 ]
        (records ~config:{ E.default with E.algorithm = alg } inv q))
    [ E.Top_down; E.Top_down_paper; E.Bottom_up; E.Naive_scan ]

let test_paper_example_sue_query () =
  let inv = Containment.Collection.paper_example () in
  (* 'people with a class A motorbike licence in the UK' — both qualify *)
  let q = Testutil.v "{{UK, {A, motorbike}}}" in
  check_records "both" [ 0; 1 ] (records inv q);
  (* C licence in the UK — only Sue *)
  check_records "Sue" [ 0 ] (records inv (Testutil.v "{{UK, {C}}}"))

let test_whole_record_is_contained_in_itself () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  List.iteri
    (fun i s ->
      let q = Testutil.v s in
      check_bool (Printf.sprintf "record %d self-contained" i) true
        (List.mem i (records inv q)))
    Testutil.licences_strings

(* --- hand-built semantics cases --- *)

let test_extra_material_allowed () =
  let inv = Testutil.mem_collection [ "{a, b, {c, d, {e}}, {f}}" ] in
  (* query is a sub-structure: hom allows s to have more *)
  check_records "subset matches" [ 0 ] (records inv (Testutil.v "{a, {c, {e}}}"));
  check_records "leaves only" [ 0 ] (records inv (Testutil.v "{b}"));
  check_records "missing leaf" [] (records inv (Testutil.v "{z}"));
  check_records "leaf at wrong level" [] (records inv (Testutil.v "{c}"))

let test_non_injective_hom () =
  (* two query children may map to the same data child *)
  let inv = Testutil.mem_collection [ "{x, {a, b}}" ] in
  check_records "both children onto one node" [ 0 ]
    (records inv (Testutil.v "{x, {a}, {b}}"))

let test_level_preservation () =
  let inv = Testutil.mem_collection [ "{a, {b, {c}}}" ] in
  check_records "c two levels down, query wants one" []
    (records inv (Testutil.v "{a, {c}}"));
  check_records "correct levels" [ 0 ] (records inv (Testutil.v "{a, {b, {c}}}"));
  check_records "skip level not allowed under hom" []
    (records inv (Testutil.v "{{c}}"))

let test_deep_nesting () =
  let deep = "{a, {b, {c, {d, {e, {f, {g}}}}}}}" in
  let inv = Testutil.mem_collection [ deep ] in
  check_records "exact deep chain" [ 0 ] (records inv (Testutil.v deep));
  check_records "deep prefix" [ 0 ]
    (records inv (Testutil.v "{{b, {c, {d}}}}"));
  check_records "wrong deep leaf" []
    (records inv (Testutil.v "{a, {b, {c, {d, {e, {f, {z}}}}}}}"))

let test_multiple_matches () =
  let inv =
    Testutil.mem_collection
      [ "{a, {b}}"; "{a, c, {b, d}}"; "{a}"; "{x, {a, {b}}}" ]
  in
  check_records "two full matches" [ 0; 1 ] (records inv (Testutil.v "{a, {b}}"));
  (* at Anywhere scope, record 3 contains the query at an inner node *)
  let r = E.query ~config:{ E.default with E.scope = E.Anywhere } inv (Testutil.v "{a, {b}}") in
  check_records "anywhere adds record 3" [ 0; 1; 3 ] r.E.records

let test_duplicate_leaves_collapse () =
  (* {a, a} is the set {a}: containment of {a} must match *)
  let inv = Testutil.mem_collection [ "{a, a, {b, b}}" ] in
  check_records "collapsed" [ 0 ] (records inv (Testutil.v "{a, {b}}"))

(* --- the published top-down variant (path containment) --- *)

(* The counterexample from DESIGN.md: below the root, two branching query
   children can be routed through different matches of their parent. *)
let branching_gap_data = "{x, {a, {b}}, {a, {c}}}"
let branching_gap_query = "{x, {a, {b}, {c}}}"

let test_paper_td_relaxation_gap () =
  let inv = Testutil.mem_collection [ branching_gap_data ] in
  let q = Testutil.v branching_gap_query in
  check_records "strict TD rejects" []
    (records ~config:{ E.default with E.algorithm = E.Top_down } inv q);
  check_records "bottom-up rejects" []
    (records ~config:{ E.default with E.algorithm = E.Bottom_up } inv q);
  check_records "naive rejects" []
    (records ~config:{ E.default with E.algorithm = E.Naive_scan } inv q);
  check_records "published TD accepts (path containment)" [ 0 ]
    (records ~config:{ E.default with E.algorithm = E.Top_down_paper } inv q)

let test_paper_td_root_level_consistent () =
  (* branching at the query root is anchored at the head itself, where hom
     legitimately allows different children to use different images — the
     published algorithm is exact for such queries *)
  let inv = Testutil.mem_collection [ "{x, {a, {b}}, {a, {c}}}"; "{x, {a, {b}}}" ] in
  let q = Testutil.v "{x, {a, {b}}, {a, {c}}}" in
  check_records "root branching positive" [ 0 ]
    (records ~config:{ E.default with E.algorithm = E.Top_down_paper } inv q);
  check_records "agrees with strict" [ 0 ]
    (records ~config:{ E.default with E.algorithm = E.Top_down } inv q);
  (* and when the root has no leaves, candidate heads multiply and the
     depth-≥1 relaxation applies below them, as documented *)
  let inv2 = Testutil.mem_collection [ "{{a, {b}}, {a, {c}}}" ] in
  let q2 = Testutil.v "{{a, {b}, {c}}}" in
  check_records "leafless root: relaxation applies" [ 0 ]
    (records ~config:{ E.default with E.algorithm = E.Top_down_paper } inv2 q2);
  check_records "strict rejects" []
    (records ~config:{ E.default with E.algorithm = E.Top_down } inv2 q2)

let prop_paper_td_overapproximates =
  Testutil.qcheck_case ~count:100 ~name:"published TD ⊇ strict TD"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_leafy_value)
    (fun (values, q) ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let q' = Containment.Query.of_value q in
      let strict = Containment.Top_down.run hom_mode inv q' in
      let paper = Containment.Top_down.run_paper hom_mode inv q' in
      Containment.Intset.subset strict paper)

(* Galloping intersection and binary-search membership against the
   list definitions, with one side often much shorter than the other. *)
let prop_intset_kernels =
  let set = QCheck.(map Containment.Intset.of_list (list_of_size Gen.(0 -- 200) (int_bound 400))) in
  let small = QCheck.(map Containment.Intset.of_list (list_of_size Gen.(0 -- 8) (int_bound 400))) in
  Testutil.qcheck_case ~count:300 ~name:"Intset inter and mem"
    (QCheck.triple set small (QCheck.int_bound 401))
    (fun (a, b, x) ->
      let module I = Containment.Intset in
      let want = List.filter (fun y -> List.mem y (I.to_list b)) (I.to_list a) in
      I.to_list (I.inter a b) = want
      && I.to_list (I.inter b a) = want
      && I.mem a x = List.mem x (I.to_list a))

(* --- leafless query nodes (node-table extension) --- *)

let test_leafless_query_nodes () =
  let inv = Testutil.mem_collection [ "{a, {{b}}}"; "{a, {b}}" ] in
  (* {{b}} requires a child-with-a-child-with-leaf-b *)
  check_records "double nesting" [ 0 ] (records inv (Testutil.v "{{{b}}}"));
  check_records "empty set query node matches any internal child" [ 0; 1 ]
    (records inv (Testutil.v "{a, {}}"))

let test_empty_query () =
  let inv = Testutil.mem_collection [ "{a}"; "{}" ] in
  (* {} has no constraints at the root: every record matches *)
  check_records "empty query" [ 0; 1 ] (records inv (Testutil.v "{}"))

let test_atom_query_rejected () =
  let inv = Testutil.mem_collection [ "{a}" ] in
  match E.query inv (Nested.Value.atom "a") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- agreement properties --- *)

let prop_algorithms_agree =
  Testutil.qcheck_case ~count:300 ~name:"TD = BU = naive (hom, any node)"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let td, bu, naive = run_all inv q in
      td = bu && bu = naive)

let prop_subquery_always_contained =
  Testutil.qcheck_case ~count:200 ~name:"random subquery of a record matches it"
    (QCheck.pair (Testutil.arbitrary_collection ~records:6 ()) QCheck.(int_bound 5))
    (fun (values, pick) ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let idx = pick mod List.length values in
      let source = List.nth values idx in
      let q =
        QCheck.Gen.generate1 (fun st -> Testutil.shrink_to_subquery st source)
      in
      let inv = Containment.Collection.of_values values in
      let result = E.query inv q in
      List.mem idx result.E.records)

let prop_fresh_atom_never_matches =
  Testutil.qcheck_case ~count:100 ~name:"query with fresh atom matches nothing"
    (Testutil.arbitrary_collection ())
    (fun values ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let q = Nested.Value.set [ Nested.Value.atom "⊥fresh" ] in
      (E.query inv q).E.records = [])

let prop_reflexive =
  Testutil.qcheck_case ~count:200 ~name:"q ⊆ q (reflexivity via singleton collection)"
    Testutil.arbitrary_value (fun q ->
      QCheck.assume (Nested.Value.is_set q);
      let inv = Containment.Collection.of_values [ q ] in
      (E.query inv q).E.records = [ 0 ])

let prop_monotone_under_record_extension =
  Testutil.qcheck_case ~count:150 ~name:"adding material to a record preserves matches"
    (QCheck.pair Testutil.arbitrary_value Testutil.arbitrary_value)
    (fun (q, extra) ->
      QCheck.assume (Nested.Value.is_set q);
      let fat = Nested.Value.add extra q in
      QCheck.assume (Nested.Value.is_set fat);
      let inv = Containment.Collection.of_values [ fat ] in
      (E.query inv q).E.records = [ 0 ])

(* --- result equivalence between scopes --- *)

let test_roots_is_root_filter_of_anywhere () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let q = Testutil.v "{UK, {A, motorbike}}" in
  let roots = (E.query inv q).E.nodes in
  let anywhere =
    (E.query ~config:{ E.default with E.scope = E.Anywhere } inv q).E.nodes
  in
  check_nodes "roots ⊆ anywhere" roots
    (Array.of_list
       (List.filter
          (fun id -> Invfile.Inverted_file.is_root inv id)
          (Array.to_list anywhere)))

let () =
  Alcotest.run "containment"
    [
      ( "paper example",
        [
          Alcotest.test_case "all algorithms, Sec. 1 query" `Quick
            test_paper_example_all_algorithms;
          Alcotest.test_case "more queries on Table 1" `Quick
            test_paper_example_sue_query;
          Alcotest.test_case "records contain themselves" `Quick
            test_whole_record_is_contained_in_itself;
        ] );
      ( "hom semantics",
        [
          Alcotest.test_case "extra material allowed" `Quick test_extra_material_allowed;
          Alcotest.test_case "non-injective" `Quick test_non_injective_hom;
          Alcotest.test_case "level preservation" `Quick test_level_preservation;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "multiple matches + scopes" `Quick test_multiple_matches;
          Alcotest.test_case "duplicate leaves collapse" `Quick
            test_duplicate_leaves_collapse;
        ] );
      ( "published top-down variant",
        [
          Alcotest.test_case "branching gap below root" `Quick
            test_paper_td_relaxation_gap;
          Alcotest.test_case "root-level branching exact" `Quick
            test_paper_td_root_level_consistent;
          prop_paper_td_overapproximates;
        ] );
      ( "extensions beyond the paper",
        [
          Alcotest.test_case "leafless query nodes" `Quick test_leafless_query_nodes;
          Alcotest.test_case "empty query" `Quick test_empty_query;
          Alcotest.test_case "atom query rejected" `Quick test_atom_query_rejected;
          prop_intset_kernels;
        ] );
      ( "agreement",
        [
          prop_algorithms_agree;
          prop_subquery_always_contained;
          prop_fresh_atom_never_matches;
          prop_reflexive;
          prop_monotone_under_record_extension;
          Alcotest.test_case "scope consistency" `Quick
            test_roots_is_root_filter_of_anywhere;
        ] );
    ]
