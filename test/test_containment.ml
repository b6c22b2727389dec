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

(* --- the record filter ---

   400 records share the stopwords s1..s4 at three depths; the rare
   atoms ra, rb and rc sit among them in a few records each, at several
   depths. A query naming a rare atom and a stopword then has a shortest
   list far below the longest, so the engine narrows every cursor to the
   rare atom's records. Every index algorithm must still answer exactly
   as without the filter, and after verification exactly as the naive
   scan, under every join, embedding and scope, with and without a Bloom
   index, on one store, a live store and two shards. *)

module IF = Invfile.Inverted_file
module T = Obs.Trace

let rare_at =
  [ (5, "ra", 0); (77, "ra", 1); (78, "ra", 2); (300, "ra", 1);
    (12, "rb", 2); (13, "rb", 2); (200, "rb", 0); (201, "rc", 1) ]

let filter_values =
  lazy
    (let st = Random.State.make [| 23 |] in
     let pick () =
       List.filter (fun _ -> Random.State.int st 3 > 0) [ "s1"; "s2"; "s3"; "s4" ]
     in
     let record i =
       let rec node depth =
         let rare =
           List.filter_map
             (fun (r, a, d) -> if r = i && d = depth then Some a else None)
             rare_at
         in
         let leaves = (if depth = 0 then [ "s1" ] else []) @ pick () @ rare in
         let kids =
           if depth = 2 then []
           else List.init (1 + Random.State.int st 2) (fun _ -> node (depth + 1))
         in
         Nested.Value.set (List.map Nested.Value.atom leaves @ kids)
       in
       node 0
     in
     List.init 400 record)

let filter_queries =
  lazy
    (let values = Array.of_list (Lazy.force filter_values) in
     let hand =
       List.map Testutil.v
         [ "{ra}"; "{s1, ra}"; "{{ra}}"; "{{s2, {ra}}}"; "{s1, {s1, {ra}}}";
           "{{{ra, s3}}}"; "{rb, {s1}}"; "{{rb}, {s4}}"; "{{s1, {rb}}}";
           "{ra, rb}"; "{s1, {s2, nowhere}}"; "{nowhere}"; "{rc, {}}";
           "{{rc}, {{}}}"; "{s1, {ra}, {rb}}" ]
     in
     let st = Random.State.make [| 5 |] in
     let holders = List.sort_uniq Int.compare (List.map (fun (r, _, _) -> r) rare_at) in
     let rare v =
       List.exists (fun a -> List.mem a [ "ra"; "rb"; "rc" ]) (Nested.Value.atom_universe v)
     in
     let sub =
       List.concat_map
         (fun r ->
           List.init 4 (fun _ -> Testutil.shrink_to_subquery st values.(r)))
         holders
     in
     let inner =
       (* every subtree holding a rare atom: equality answers below roots *)
       List.concat_map
         (fun r -> List.filter Nested.Value.is_set (Nested.Value.elements values.(r)))
         holders
     in
     hand
     @ List.filter rare (sub @ inner)
     @ List.map (fun r -> values.(r)) holders)

(* The eval spans of a trace, at any depth (a live store or a router
   nests one engine trace per part). *)
let rec eval_spans (s : T.span) =
  (if s.T.name = "eval" then [ s ] else []) @ List.concat_map eval_spans s.T.children

let filter_applied root =
  List.exists
    (fun (s : T.span) -> List.assoc_opt "filter" s.T.attrs = Some "true")
    (eval_spans root)

let traced f =
  let trace = T.create "query" in
  let r = f trace in
  (r, T.finish trace)

let filter_configs =
  List.concat_map
    (fun join ->
      List.concat_map
        (fun embedding ->
          List.map (fun scope -> { E.default with E.join; embedding; scope })
            [ E.Roots; E.Anywhere ])
        [ S.Hom; S.Iso; S.Homeo; S.Homeo_full ])
    [ S.Containment; S.Equality ]

let config_name (c : E.config) =
  Format.asprintf "%a/%a/%s%s" S.pp_join c.E.join S.pp_embedding c.E.embedding
    (match c.E.scope with E.Roots -> "roots" | E.Anywhere -> "anywhere")
    (match c.E.filter_index with None -> "" | Some _ -> "/bloom")

(* [None] when the combination is refused. *)
let answer f = match f () with r -> Some r | exception S.Unsupported _ -> None

(* The algorithm run directly, outside the engine: no pins, no filter. *)
let direct (config : E.config) inv q =
  let mode = S.mode_of config.E.join config.E.embedding in
  let q = Containment.Query.of_value q in
  let root_filter =
    match config.E.scope, config.E.filter_index with
    | E.Anywhere, _ -> None
    | E.Roots, None -> Some (IF.roots inv)
    | E.Roots, Some fi -> (
      match
        Containment.Filter_index.candidate_records fi ~join:config.E.join
          ~embedding:config.E.embedding (Containment.Query.to_value q)
      with
      | None -> Some (IF.roots inv)
      | Some rs -> Some (Array.of_list (List.map (fun r -> (IF.roots inv).(r)) rs)))
  in
  let nodes =
    match config.E.algorithm with
    | E.Top_down -> Containment.Top_down.run mode ?root_filter inv q
    | E.Top_down_paper -> Containment.Top_down.run_paper mode ?root_filter inv q
    | E.Bottom_up -> Containment.Bottom_up.run mode ?root_filter inv q
    | E.Naive_scan | E.Signature_scan -> assert false
  in
  match config.E.scope with
  | E.Anywhere -> nodes
  | E.Roots -> Array.of_list (List.filter (IF.is_root inv) (Array.to_list nodes))

let naive_records (config : E.config) inv q =
  answer (fun () ->
      (E.query ~config:{ config with E.algorithm = E.Naive_scan; filter_index = None }
         inv q).E.records)

let test_filter_single_store () =
  let values = Lazy.force filter_values in
  let inv = Containment.Collection.of_values values in
  let fi = Containment.Filter_index.build inv in
  let applied = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun q ->
          let naive = naive_records base inv q in
          List.iter
            (fun filter_index ->
              List.iter
                (fun algorithm ->
                  let config = { base with E.algorithm; filter_index } in
                  let ctx =
                    Printf.sprintf "%s %s on %s"
                      (match algorithm with
                      | E.Top_down -> "top-down"
                      | E.Top_down_paper -> "top-down-paper"
                      | _ -> "bottom-up")
                      (config_name config) (Nested.Value.to_string q)
                  in
                  match
                    answer (fun () -> traced (fun trace -> E.query ~config ~trace inv q))
                  with
                  | None -> ()
                  | Some (r, root) -> (
                    if filter_applied root then incr applied;
                    match answer (fun () -> direct config inv q), naive with
                    | Some nodes, Some naive ->
                      check_nodes (ctx ^ ": = the unfiltered algorithm") nodes r.E.nodes;
                      let verified =
                        (E.query ~config:{ config with E.verify = true } inv q).E.records
                      in
                      check_records (ctx ^ ": verified = naive") naive verified
                    | None, _ | _, None ->
                      (* a refused combination answers only when a
                         prefilter proved the answer empty, as Bloom
                         pruning and the early stop at an empty list
                         do *)
                      check_records (ctx ^ ": pruned, so empty") [] r.E.records))
                [ E.Top_down; E.Top_down_paper; E.Bottom_up ])
            [ None; Some fi ])
        (Lazy.force filter_queries))
    filter_configs;
  check_bool "the filter applied" true (!applied > 1000)

(* Every hand query naming a rare atom (or an atom nowhere) beside a
   stopword applies the filter; the fresh atom answers empty from its
   empty list. *)
let test_filter_trace () =
  let inv = Containment.Collection.of_values (Lazy.force filter_values) in
  List.iter
    (fun (q, expect) ->
      let r, root = traced (fun trace -> E.query ~trace inv (Testutil.v q)) in
      check_bool (q ^ ": filter applied") expect (filter_applied root);
      let eval = List.hd (eval_spans root) in
      if expect then
        check_bool (q ^ ": filter atom named") true
          (List.mem_assoc "filter_atom" eval.T.attrs);
      if q = "{s1, {s2, nowhere}}" then begin
        check_records "fresh atom answers empty" [] r.E.records;
        check_bool "no record filtered" true
          (List.assoc_opt "filter_records" eval.T.attrs = Some "0")
      end)
    [ ("{s1, ra}", true); ("{{s2, {ra}}}", true); ("{s1, {s2, nowhere}}", true);
      ("{s1, {s2}}", false); ("{{s3, s4}}", false) ];
  (* a prefix pattern never picks the filter, but its atoms read
     through it *)
  List.iter
    (fun (q, expect) ->
      List.iter
        (fun algorithm ->
          let config = { E.default with E.wildcards = true; algorithm } in
          let r, root = traced (fun trace -> E.query ~config ~trace inv (Testutil.v q)) in
          check_bool (q ^ ": wildcard filter") expect (filter_applied root);
          check_records (q ^ ": wildcard = naive")
            (E.query ~config:{ config with E.algorithm = E.Naive_scan } inv (Testutil.v q))
              .E.records
            r.E.records)
        [ E.Top_down; E.Bottom_up ])
    [ ("{s1, {r*}}", false); ("{ra, {s*}}", false); ("{ra, s1, {s*}}", true);
      ("{{s1, {rb, s*}}}", true) ];
  (* superset and naive runs never narrow *)
  List.iter
    (fun config ->
      let _, root = traced (fun trace -> E.query ~config ~trace inv (Testutil.v "{s1, ra}")) in
      check_bool "filter not applied" false (filter_applied root))
    [ { E.default with E.join = S.Superset }; { E.default with E.algorithm = E.Naive_scan } ]

let with_temp_dir f =
  let dir = Filename.temp_file "nscq_filter_" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* A live store of a sealed segment and a memtable, and a 2-shard
   router, answer as the naive scan over one store. *)
let test_filter_live_and_shards () =
  let values = Lazy.force filter_values in
  let inv = Containment.Collection.of_values values in
  let configs =
    List.concat_map
      (fun base ->
        List.map (fun algorithm -> { base with E.algorithm })
          [ E.Top_down; E.Bottom_up ])
      filter_configs
  in
  let check_all name query =
    let applied = ref false in
    List.iter
      (fun config ->
        List.iter
          (fun q ->
            match naive_records config inv q with
            | None -> ()
            | Some expect ->
              let got, root = traced (fun trace -> query config trace q) in
              if filter_applied root then applied := true;
              check_records
                (Printf.sprintf "%s %s on %s" name (config_name config)
                   (Nested.Value.to_string q))
                expect got)
          (Lazy.force filter_queries))
      configs;
    check_bool (name ^ ": the filter applied") true !applied
  in
  with_temp_dir (fun dir ->
      let store =
        Live.Live_store.create
          ~config:{ Live.Live_store.default with flush_records = 0; max_segments = 0 }
          dir
      in
      Fun.protect ~finally:(fun () -> Live.Live_store.close store) @@ fun () ->
      List.iteri
        (fun i v ->
          ignore (Live.Live_store.insert store v);
          if i = 199 then ignore (Live.Live_store.flush store))
        values;
      check_all "live" (fun config trace q -> Live.Live_store.query ~config ~trace store q));
  Testutil.with_temp_path ".manifest" (fun mpath ->
      let m = Shard.Partitioner.build ~shards:2 ~manifest_path:mpath values in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun (s : Shard.Manifest.shard) ->
              match s.Shard.Manifest.location with
              | Shard.Manifest.Local { path; _ } -> (
                try Sys.remove path with Sys_error _ -> ())
              | Shard.Manifest.Remote _ -> ())
            m.Shard.Manifest.shards)
      @@ fun () ->
      check_all "2 shards" (fun config trace q ->
          let r =
            Shard.Router.open_manifest
              ~config:{ Shard.Router.default_config with engine = config; domains = 1 }
              m
          in
          Fun.protect ~finally:(fun () -> Shard.Router.close r) @@ fun () ->
          (Shard.Router.query ~trace r q).Shard.Router.records))

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
      ( "record filter",
        [
          Alcotest.test_case "every algorithm, join, embedding, scope, Bloom" `Slow
            test_filter_single_store;
          Alcotest.test_case "trace shows the filter" `Quick test_filter_trace;
          Alcotest.test_case "live store and 2 shards" `Slow
            test_filter_live_and_shards;
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
