(* Tests for the inverted file: postings, the sorted-list algebra, the
   builder (against the paper's Table 2), and caches. *)

module L = Invfile.Plist
module R = Invfile.Plist_ref
module IF = Invfile.Inverted_file

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let posting ?(leaf_count = 1) ?(post = 0) ?(parent = -1) node children =
  { R.node; children = Array.of_list children; leaf_count; post; parent }

(* Postings in any order, sorted into a list; a duplicate node id is
   refused by Plist_ref.to_plist. *)
let of_postings ps =
  R.to_plist (Array.of_list (List.sort (fun a b -> Int.compare a.R.node b.R.node) ps))

let plist specs = of_postings (List.map (fun (n, cs) -> posting n cs) specs)

let nodes_of l = Array.to_list (L.nodes l)

(* A node's row as a record, as the writers and the oracle see it. *)
let find l id =
  let r = L.find_row l id in
  if r < 0 then None else Some (R.row l r)

(* Every node of a list, as a head set. *)
let idset l = L.idset_filter (fun _ -> true) l

(* A path list as (head, matched node) pairs. *)
let path_pairs ps = List.init (L.path_count ps) (fun k -> (L.path_head ps k, L.path_node ps k))

(* The candidate kernels over decoded (cached) lists. *)
module St = Invfile.Plist_stream

let inter_many ls = St.inter_many (List.map St.cursor_of_plist ls)
let inter a b = inter_many [ a; b ]

(* --- Plist algebra --- *)

let test_of_list_sorts_and_rejects_dups () =
  let l = plist [ (5, []); (2, [ 3 ]); (9, []) ] in
  Alcotest.(check (list int)) "sorted" [ 2; 5; 9 ] (nodes_of l);
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Plist_ref.to_plist: node ids not strictly increasing") (fun () ->
      ignore (plist [ (1, []); (1, []) ]))

let test_find_mem () =
  let l = plist [ (2, [ 3 ]); (5, []); (9, []) ] in
  check_bool "mem 5" true (L.mem l 5);
  check_bool "mem 4" false (L.mem l 4);
  (match find l 2 with
  | Some p -> Alcotest.(check (array int)) "payload" [| 3 |] p.R.children
  | None -> Alcotest.fail "find 2");
  check_bool "find absent" true (find l 7 = None)

let test_inter () =
  let a = plist [ (1, []); (3, []); (5, []); (7, []) ] in
  let b = plist [ (3, []); (4, []); (7, []); (9, []) ] in
  Alcotest.(check (list int)) "inter" [ 3; 7 ] (nodes_of (inter a b));
  Alcotest.(check (list int)) "inter sym" [ 3; 7 ] (nodes_of (inter b a));
  Alcotest.(check (list int)) "with empty" [] (nodes_of (inter a L.empty))

let test_inter_gallop_path () =
  (* the small list drives; the big one is galloped through *)
  let small = plist [ (100, []); (500, []) ] in
  let big = plist (List.init 200 (fun i -> (i * 5, []))) in
  Alcotest.(check (list int)) "gallop" [ 100; 500 ] (nodes_of (inter small big))

let test_inter_many () =
  let a = plist [ (1, []); (2, []); (3, []) ] in
  let b = plist [ (2, []); (3, []) ] in
  let c = plist [ (3, []); (4, []) ] in
  Alcotest.(check (list int)) "3-way" [ 3 ] (nodes_of (inter_many [ a; b; c ]));
  Alcotest.(check (list int)) "singleton" [ 1; 2; 3 ] (nodes_of (inter_many [ a ]));
  check_bool "singleton shares the list" true (inter_many [ a ] == a);
  (* One message for Plist_stream and Plist_ref: the engine guards the
     degenerate family once. *)
  Alcotest.check_raises "empty family"
    (Invalid_argument "inter_many: empty intersection is the node universe")
    (fun () -> ignore (inter_many []))

let test_union_with_counts () =
  let a = plist [ (1, []); (2, []) ] in
  let b = plist [ (2, []); (3, []) ] in
  let c = plist [ (2, []); (3, []) ] in
  let u = St.union_with_counts (List.map St.cursor_of_plist [ a; b; c ]) in
  Alcotest.(check (list (pair int int)))
    "counts"
    [ (1, 1); (2, 3); (3, 2) ]
    (let l, counts = u in
     List.combine (nodes_of l) (Array.to_list counts))

let test_leaf_count_filters () =
  let l =
    of_postings
      [ posting ~leaf_count:1 1 []; posting ~leaf_count:2 2 []; posting ~leaf_count:3 3 [] ]
  in
  Alcotest.(check (list int)) "eq 2" [ 2 ] (nodes_of (L.filter_leaf_count_eq 2 l));
  Alcotest.(check (list int)) "ge 2" [ 2; 3 ] (nodes_of (L.filter_leaf_count_ge 2 l))

(* --- the ▷◁_IF join (paper Sec. 2 worked example) --- *)

let test_join_child_paper_example () =
  (* S_IF(London) ▷◁ S_IF(UK) = ⟨(r_sue, {n2})⟩ with the ids of Fig. 1
     renamed: r_sue = 0, n1 = 1, n2 = 2, n3 = 3 (second UK set), m4 = 4. *)
  let london = plist [ (0, [ 1; 3 ]) ] in
  let uk = plist [ (0, [ 1; 3 ]); (1, [ 2 ]); (3, [ 4 ]) ] in
  let joined = L.join_child (L.paths_of_candidates london) uk in
  Alcotest.(check (list (pair int int)))
    "heads and matched nodes"
    [ (0, 1); (0, 3) ]
    (path_pairs joined)

let test_join_child_propagates_head () =
  let p0 = L.paths_of_candidates (plist [ (0, [ 5 ]); (10, [ 15 ]) ]) in
  let cand = plist [ (5, [ 6 ]); (15, [] ) ] in
  let j = L.join_child p0 cand in
  Alcotest.(check (list (pair int int)))
    "heads preserved"
    [ (0, 5); (10, 15) ]
    (path_pairs j);
  Alcotest.(check (list int)) "π₁" [ 0; 10 ] (Array.to_list (L.heads j))

let test_join_descendant () =
  (* Record: 0 (post 3) → 1 (post 1) → 2 (post 0); 0 → 3 (post 2).
     DFS: pre 0 1 2 3; post: node2=0, node1=1, node3=2, node0=3. *)
  let mk node post children =
    { R.node; children = Array.of_list children; leaf_count = 1; post; parent = -1 }
  in
  let paths =
    L.paths_of_candidates (of_postings [ mk 0 3 [ 1; 3 ] ])
  in
  let cand = of_postings [ mk 2 0 []; mk 3 2 [] ] in
  let j = L.join_descendant paths cand in
  Alcotest.(check (list int))
    "both descendants found (grandchild too)"
    [ 2; 3 ]
    (List.map snd (path_pairs j));
  (* from node 1, only node 2 is a descendant *)
  let paths1 = L.paths_of_candidates (of_postings [ mk 1 1 [ 2 ] ]) in
  let j1 = L.join_descendant paths1 cand in
  Alcotest.(check (list int)) "subtree only" [ 2 ]
    (List.map snd (path_pairs j1))

let test_idset_covers () =
  let p = plist [ (1, [ 4; 7; 9 ]) ] in
  let h = idset (plist [ (7, []); (20, []) ]) in
  check_bool "covers via 7" true (L.covers_child p 0 h);
  let h2 = idset (plist [ (5, []); (20, []) ]) in
  check_bool "no cover" false (L.covers_child p 0 h2);
  check_bool "empty idset" false (L.covers_child p 0 (idset L.empty))

let test_covers_descendant () =
  let anc = { R.node = 10; children = [| 11 |]; leaf_count = 0; post = 15; parent = -1 } in
  (* descendant: node 12 with post 12 < 15; non-descendant: node 30, post 40 *)
  let h_desc = idset (of_postings [ { R.node = 12; children = [||]; leaf_count = 0; post = 12; parent = 10 } ]) in
  let h_far = idset (of_postings [ { R.node = 30; children = [||]; leaf_count = 0; post = 40; parent = -1 } ]) in
  let anc = of_postings [ anc ] in
  check_bool "descendant" true (L.covers_descendant anc 0 h_desc);
  check_bool "not descendant" false (L.covers_descendant anc 0 h_far);
  check_bool "self not descendant" false
    (L.covers_descendant anc 0 (idset anc))

let test_plist_codec_roundtrip () =
  let l =
    of_postings
      [
        { R.node = 3; children = [| 4; 9 |]; leaf_count = 2; post = 7; parent = 1 };
        { R.node = 12; children = [||]; leaf_count = 5; post = 1; parent = -1 };
      ]
  in
  let l' = L.of_bytes (L.to_bytes l) in
  check_int "length" 2 (L.length l');
  Alcotest.(check (array int)) "children" [| 4; 9 |] (Option.get (find l' 3)).R.children;
  check_int "leaf_count" 5 (Option.get (find l' 12)).R.leaf_count;
  check_int "post" 7 (Option.get (find l' 3)).R.post

let prop_inter_correct =
  Testutil.qcheck_case ~name:"inter = set intersection"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_bound 50))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_bound 50)))
    (fun (xs, ys) ->
      let mk l = plist (List.map (fun n -> (n, [])) (List.sort_uniq Int.compare l)) in
      let expected =
        List.filter (fun x -> List.mem x ys) (List.sort_uniq Int.compare xs)
      in
      nodes_of (inter (mk xs) (mk ys)) = expected)

let prop_codec_roundtrip =
  Testutil.qcheck_case ~name:"plist codec roundtrip"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20)
       (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 5) (QCheck.int_bound 1000)))
    (fun specs ->
      let seen = Hashtbl.create 16 in
      let postings =
        List.filter_map
          (fun (node, lc, post) ->
            if Hashtbl.mem seen node then None
            else begin
              Hashtbl.replace seen node ();
              Some
                {
                  R.node;
                  children = [| node + 1; node + 5 |];
                  leaf_count = lc;
                  post;
                  parent = (if node = 0 then -1 else node - 1);
                }
            end)
          specs
      in
      let l = of_postings postings in
      let l' = L.of_bytes (L.to_bytes l) in
      R.of_plist l = R.of_plist l')

(* --- join spec properties: the ▷◁ join against a brute-force model --- *)

(* Random forest of postings: parents own disjoint child ranges with valid
   pre/post intervals, as the tree encoder would produce. *)
let gen_forest =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun p -> Printf.sprintf "(%d, {%s})" p.R.node
             (String.concat ", " (List.map string_of_int (Array.to_list p.R.children)))) l))
    (fun st ->
      let n_parents = QCheck.Gen.int_range 1 6 st in
      let next = ref 0 and posts = ref [] in
      let parents =
        List.init n_parents (fun _ ->
            let id = !next in
            incr next;
            let n_children = QCheck.Gen.int_range 0 3 st in
            let children = Array.init n_children (fun _ ->
                let c = !next in
                incr next;
                c)
            in
            (* post: children (leaves here) first, then the parent *)
            Array.iter (fun c -> posts := (c, List.length !posts) :: !posts) children;
            posts := (id, List.length !posts) :: !posts;
            (id, children))
      in
      let post_of x = List.assoc x !posts in
      List.concat_map
        (fun (id, children) ->
          { R.node = id; children; leaf_count = 1; post = post_of id; parent = -1 }
          :: Array.to_list
               (Array.map
                  (fun c ->
                    { R.node = c; children = [||]; leaf_count = 1; post = post_of c;
                      parent = id })
                  children))
        parents)

let prop_join_child_spec =
  Testutil.qcheck_case ~count:300 ~name:"join_child = brute-force spec"
    (QCheck.pair gen_forest QCheck.(list_of_size (Gen.int_range 0 8) (int_bound 20)))
    (fun (forest, picks) ->
      let all = of_postings forest in
      (* left: paths over a random subset of postings; right: candidates *)
      let lefts =
        List.sort_uniq Int.compare picks
        |> List.filter_map (find all)
        |> Array.of_list
      in
      let paths = L.paths_of_candidates (R.to_plist lefts) in
      let joined = L.join_child paths all in
      let expected =
        Array.to_list lefts
        |> List.concat_map (fun p ->
               Array.to_list p.R.children
               |> List.filter_map (fun c ->
                      Option.map (fun p' -> (p.R.node, p'.R.node)) (find all c)))
        |> List.sort_uniq compare
      in
      let got = List.sort_uniq compare (path_pairs joined) in
      got = expected)

let prop_join_descendant_spec =
  Testutil.qcheck_case ~count:300 ~name:"join_descendant = interval spec"
    Testutil.arbitrary_value (fun v ->
      QCheck.assume (Nested.Value.is_set v);
      let tree = Nested.Tree.of_value (Nested.Tree.allocator ()) ~record_id:0 v in
      let all = L.build (fun b -> Nested.Tree.iter (L.Buf.add_node b) tree) in
      let postings = R.of_plist all in
      let paths = L.paths_of_candidates all in
      let joined = L.join_descendant paths all in
      let got = List.sort_uniq compare (path_pairs joined) in
      let expected =
        Array.to_list postings
        |> List.concat_map (fun a ->
               Array.to_list postings
               |> List.filter_map (fun d ->
                      if
                        a.R.node <> d.R.node
                        && Nested.Tree.is_descendant tree ~anc:a.R.node ~desc:d.R.node
                      then Some (a.R.node, d.R.node)
                      else None))
        |> List.sort_uniq compare
      in
      got = expected)

(* --- Builder vs Table 2 --- *)

(* The collection of Table 1 / Fig. 1. With DFS pre-order ids:
   Sue: root 0 = {London, UK, n1=1, n3=3}, 1 = {UK, n2=2}, 2 = {A,B,C,car,motorbike},
        3 = {UK, m4'=4}, 4 = {A, motorbike}
   Tim: root 5 = {Boston, USA, m3=6?, m1=8?} — canonical order decides; we
   compute the expectation from the tree encoding itself. *)
let test_builder_reproduces_table2 () =
  let inv = Testutil.mem_collection (List.filteri (fun i _ -> i < 2) Testutil.licences_strings) in
  let postings atom =
    Array.to_list (R.of_plist (IF.lookup inv atom))
    |> List.map (fun p -> (p.R.node, Array.to_list p.R.children))
  in
  (* Sue = record 0 (ids 0-4), Tim = record 1 (ids 5-9). Canonical element
     order in Tim: {UK,{A,motorbike}} = node 6 (with child 7), then
     {USA,VA,{A,B,car}} = node 8 (with child 9). *)
  Alcotest.(check (list (pair int (list int))))
    "London" [ (0, [ 1; 3 ]) ] (postings "London");
  Alcotest.(check (list (pair int (list int))))
    "UK" [ (0, [ 1; 3 ]); (1, [ 2 ]); (3, [ 4 ]); (6, [ 7 ]) ]
    (postings "UK");
  Alcotest.(check (list (pair int (list int))))
    "A" [ (2, []); (4, []); (7, []); (9, []) ] (postings "A");
  Alcotest.(check (list (pair int (list int)))) "B" [ (2, []); (9, []) ] (postings "B");
  Alcotest.(check (list (pair int (list int)))) "C" [ (2, []) ] (postings "C");
  Alcotest.(check (list (pair int (list int))))
    "car" [ (2, []); (9, []) ] (postings "car");
  Alcotest.(check (list (pair int (list int))))
    "motorbike" [ (2, []); (4, []); (7, []) ] (postings "motorbike");
  Alcotest.(check (list (pair int (list int))))
    "Boston" [ (5, [ 6; 8 ]) ] (postings "Boston");
  Alcotest.(check (list (pair int (list int))))
    "USA" [ (5, [ 6; 8 ]); (8, [ 9 ]) ] (postings "USA");
  Alcotest.(check (list (pair int (list int)))) "VA" [ (8, [ 9 ]) ] (postings "VA");
  Alcotest.(check (list (pair int (list int)))) "unknown" [] (postings "XX")

let test_builder_metadata () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  check_int "records" 4 (IF.record_count inv);
  Alcotest.(check (array int)) "roots" [| 0; 5; 10; 15 |] (IF.roots inv);
  check_bool "is_root" true (IF.is_root inv 5);
  check_bool "inner not root" false (IF.is_root inv 6);
  check_int "root_of_node" 5 (IF.root_of_node inv 9);
  check_int "record_of_root" 2 (IF.record_of_root inv 10);
  check_int "node_count: 4 records x 5 nodes" 20 (IF.node_count inv);
  check_bool "atom known" true (IF.mem_atom inv "London");
  check_bool "atom unknown" false (IF.mem_atom inv "Berlin")

let test_builder_record_values () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let v1 = IF.record_value inv 1 in
  Alcotest.check Testutil.value_testable "Tim stored"
    (Nested.Syntax.of_string (List.nth Testutil.licences_strings 1))
    v1;
  let seen = ref 0 in
  IF.iter_records inv (fun _ _ -> incr seen);
  check_int "iter_records" 4 !seen

let test_builder_node_table () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let all = IF.all_nodes inv in
  check_int "all internal nodes" 20 (L.length all);
  Alcotest.(check (array int)) "ids 0..19" (Array.init 20 (fun i -> i)) (L.nodes all)

let test_builder_top_atoms () =
  let inv = Testutil.mem_collection (List.filteri (fun i _ -> i < 2) Testutil.licences_strings) in
  match IF.top_atoms inv with
  | (top, count) :: _ ->
    (* "A" and "UK" both occur at 4 nodes; ties break alphabetically *)
    Alcotest.(check string) "most frequent atom" "A" top;
    check_int "posting count" 4 count
  | [] -> Alcotest.fail "no top atoms"

let test_record_tree_ids_match () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let t = IF.record_tree inv 2 in
  check_int "first_id = root" 10 t.Nested.Tree.root;
  (* canonical order puts {DE, …} before {FR, …} in the Paris record *)
  Alcotest.check Testutil.value_testable "subtree_value at inner node"
    (Nested.Syntax.of_string "{DE, {B, car, truck}}")
    (IF.subtree_value inv 11)

let test_open_store_missing_meta () =
  let store = Storage.Mem_store.create () in
  match IF.open_store store with
  | exception IF.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed"

(* --- caches --- *)

let test_cache_static_preload_and_bounds () =
  let c = Invfile.Cache.create Invfile.Cache.Static ~capacity:2 in
  Invfile.Cache.preload c [ ("a", L.empty); ("b", L.empty); ("c", L.empty) ];
  check_int "capacity respected" 2 (Invfile.Cache.size c);
  check_bool "a cached" true (Invfile.Cache.find c "a" <> None);
  (* static ignores inserts once full *)
  Invfile.Cache.insert c "z" L.empty;
  check_bool "z not admitted" true (Invfile.Cache.find c "z" = None)

let test_cache_lru_eviction () =
  let c = Invfile.Cache.create Invfile.Cache.Lru ~capacity:2 in
  Invfile.Cache.insert c "a" L.empty;
  Invfile.Cache.insert c "b" L.empty;
  ignore (Invfile.Cache.find c "a");
  (* "b" is now least recently used *)
  Invfile.Cache.insert c "c" L.empty;
  check_bool "a survives" true (Invfile.Cache.find c "a" <> None);
  check_bool "b evicted" true (Invfile.Cache.find c "b" = None);
  check_bool "c admitted" true (Invfile.Cache.find c "c" <> None)

let test_cache_lfu_eviction () =
  let c = Invfile.Cache.create Invfile.Cache.Lfu ~capacity:2 in
  Invfile.Cache.insert c "hot" L.empty;
  Invfile.Cache.insert c "cold" L.empty;
  ignore (Invfile.Cache.find c "hot");
  ignore (Invfile.Cache.find c "hot");
  Invfile.Cache.insert c "new" L.empty;
  check_bool "hot survives" true (Invfile.Cache.find c "hot" <> None);
  check_bool "cold evicted" true (Invfile.Cache.find c "cold" = None)

let test_cache_zero_capacity () =
  let c = Invfile.Cache.create Invfile.Cache.Lru ~capacity:0 in
  Invfile.Cache.insert c "a" L.empty;
  check_int "nothing cached" 0 (Invfile.Cache.size c)

let test_attached_cache_hits () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  Invfile.Cache.create Invfile.Cache.Static ~capacity:3 |> IF.attach_cache inv;
  let stats = IF.lookup_stats inv in
  Storage.Io_stats.reset stats;
  (* UK is the most frequent atom → preloaded *)
  ignore (IF.lookup inv "UK");
  ignore (IF.lookup inv "UK");
  check_int "hits" 2 (Storage.Io_stats.hits stats);
  ignore (IF.lookup inv "Paris");
  check_int "miss on cold atom" 1 (Storage.Io_stats.misses stats);
  (* cached lookup agrees with store lookup *)
  IF.detach_cache inv;
  let direct = IF.lookup inv "UK" in
  Invfile.Cache.create Invfile.Cache.Static ~capacity:3 |> IF.attach_cache inv;
  let cached = IF.lookup inv "UK" in
  check_bool "cache transparent" true (direct = cached)

(* Resolution scopes nest over the handle's one pin table: an inner
   scope reads the outer pins and adds its own, which outlive it until
   the outermost scope returns; each scope restores the record filter
   it found, also when it raises; a pin outside every scope is refused. *)
let test_scopes_nest () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let stats = IF.lookup_stats inv in
  let drain a = R.of_plist (St.inter_many [ IF.cursor inv a ]) in
  let full = R.of_plist (IF.lookup inv "UK") in
  Storage.Io_stats.reset stats;
  let lookups () = Storage.Io_stats.lookups stats in
  IF.with_query inv (fun () ->
      ignore (IF.pin inv "Paris");
      check_int "outer pin: one lookup" 1 (lookups ());
      ignore (IF.pin inv "UK");
      IF.with_query inv (fun () ->
          ignore (IF.pin inv "Paris");
          check_int "inner scope reads the outer pin" 2 (lookups ());
          ignore (IF.pin inv "London");
          check_int "a new atom: one lookup" 3 (lookups ());
          IF.filter_records inv [| 1 |];
          check_bool "inner filter restricts" true (Array.length (drain "UK") < Array.length full));
      check_bool "inner pin outlives the inner scope" true (IF.pinned inv "London");
      check_bool "inner filter dropped" true (drain "UK" = full);
      (match
         IF.with_query inv (fun () ->
             ignore (IF.pin inv "truck");
             IF.filter_records inv [| 0 |];
             failwith "boom")
       with
      | () -> Alcotest.fail "the scope should raise"
      | exception Failure _ -> ());
      check_bool "filter dropped when the scope raises" true (drain "UK" = full);
      check_bool "pins kept when an inner scope raises" true (IF.pinned inv "truck"));
  List.iter
    (fun a -> check_bool ("no pin after the outermost scope: " ^ a) false (IF.pinned inv a))
    [ "Paris"; "UK"; "London"; "truck" ];
  check_int "four atoms, four lookups" 4 (lookups ());
  match IF.pin inv "Paris" with
  | _ -> Alcotest.fail "pin outside a scope should raise"
  | exception Invalid_argument _ -> ()

(* Inverted_file.cursor: a list the cache would not keep is read as its
   payload (one counted miss, cache untouched); one it keeps is decoded
   and admitted; inside a scope a pinned atom resolves once. Every cursor
   yields the stored list. *)
let test_cursor_resolution () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let drain a = R.of_plist (St.inter_many [ IF.cursor inv a ]) in
  let want = R.of_plist (IF.lookup inv "Paris") in
  let stats = IF.lookup_stats inv in
  let static = Invfile.Cache.create Invfile.Cache.Static ~capacity:3 in
  IF.attach_cache inv static;
  Storage.Io_stats.reset stats;
  check_bool "payload cursor yields the list" true (drain "Paris" = want);
  check_int "one miss" 1 (Storage.Io_stats.misses stats);
  check_bool "full static cache untouched" false
    (List.mem "Paris" (Invfile.Cache.cached_atoms static));
  let lru = Invfile.Cache.create Invfile.Cache.Lru ~capacity:4 in
  IF.attach_cache inv lru;
  check_bool "decoded cursor yields the list" true (drain "Paris" = want);
  check_bool "lru admits it" true (List.mem "Paris" (Invfile.Cache.cached_atoms lru));
  IF.detach_cache inv;
  Storage.Io_stats.reset stats;
  IF.with_query inv (fun () ->
      ignore (IF.pin inv "Paris");
      ignore (IF.pin inv "Paris");
      check_bool "pinned cursor yields the list" true (drain "Paris" = want);
      check_bool "and again" true (drain "Paris" = want));
  check_int "one lookup for the pinned atom" 1 (Storage.Io_stats.lookups stats);
  ignore (drain "Paris");
  check_int "unpinned after the scope" 2 (Storage.Io_stats.lookups stats)

(* Accounting invariant: whatever the cache configuration, every lookup
   lands in exactly one of the hit or miss buckets. *)
let prop_lookup_accounting =
  let arb =
    QCheck.triple
      (QCheck.int_bound 3) (* 0 = no cache, else a policy *)
      (QCheck.int_bound 8) (* capacity *)
      (QCheck.list_of_size (QCheck.Gen.int_range 0 40)
         (QCheck.oneofa
            [| "UK"; "USA"; "A"; "B"; "car"; "motorbike"; "London"; "absent"; "zz" |]))
  in
  Testutil.qcheck_case ~count:300 ~name:"cache stats: hits + misses = lookups" arb
    (fun (policy, capacity, atoms) ->
      let inv = Testutil.mem_collection Testutil.licences_strings in
      (match policy with
      | 0 -> ()
      | 1 -> IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Static ~capacity)
      | 2 -> IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Lru ~capacity)
      | _ -> IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Lfu ~capacity));
      let stats = IF.lookup_stats inv in
      Storage.Io_stats.reset stats;
      List.iter (fun a -> ignore (IF.lookup inv a)) atoms;
      Storage.Io_stats.lookups stats = List.length atoms
      && Storage.Io_stats.hits stats + Storage.Io_stats.misses stats
         = Storage.Io_stats.lookups stats)

(* --- payload codecs --- *)

(* The retired bitpacked tag is refused by name, not decoded as garbage
   or reported as an unknown format. *)
let test_retired_bitpacked_tag () =
  let l = plist [ (3, [ 4 ]); (12, []) ] in
  (match L.of_bytes ("B" ^ L.to_bytes l) with
  | exception Storage.Codec.Corrupt m ->
    check_bool "names the retired codec" true (Testutil.contains m "retired bitpacked")
  | _ -> Alcotest.fail "a 'B' payload decoded")

(* Without ~codec a list is written varint up to one block of rows and
   blocked beyond, and ~codec overrides the choice. *)
let test_format_follows_length () =
  let rows n = plist (List.init n (fun i -> (2 * i, []))) in
  List.iter
    (fun (n, want) ->
      check_bool (Printf.sprintf "%d rows" n) true (L.codec_of_bytes (L.to_bytes (rows n)) = want))
    [ (1, L.Varint); (Invfile.Plist_blocks.block_size, L.Varint);
      (Invfile.Plist_blocks.block_size + 1, L.Blocked) ];
  check_bool "override" true (L.codec_of_bytes (L.to_bytes ~codec:L.Blocked (rows 1)) = L.Blocked)

let prop_codecs_agree =
  Testutil.qcheck_case ~name:"varint and blocked payloads decode identically"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 30)
       (QCheck.triple (QCheck.int_bound 1000) (QCheck.int_bound 5) (QCheck.int_bound 1000)))
    (fun specs ->
      let seen = Hashtbl.create 16 in
      let postings =
        List.filter_map
          (fun (node, lc, post) ->
            if Hashtbl.mem seen node then None
            else begin
              Hashtbl.replace seen node ();
              Some
                { R.node; children = [| node + 1; node + 5 |]; leaf_count = lc;
                  post; parent = (if node = 0 then -1 else node - 1) }
            end)
          specs
      in
      let l = of_postings postings in
      R.of_plist (L.of_bytes (L.to_bytes ~codec:L.Blocked l)) = R.of_plist l
      && R.of_plist (L.of_bytes (L.to_bytes ~codec:L.Varint l)) = R.of_plist l)

(* --- tail appends: Plist.append = to_bytes of the concatenation --- *)

(* [n] rows with strictly increasing ids; dense ids (gap 1) make bitmap
   blocks, sparse ones delta-varint blocks. *)
let gen_rows ~n ~dense st =
  let node = ref (QCheck.Gen.int_range 0 3 st) in
  R.to_plist
    (Array.init n (fun i ->
         if i > 0 then node := !node + if dense then 1 else QCheck.Gen.int_range 1 40 st;
         let id = !node in
         {
           R.node = id;
           children = Array.init (QCheck.Gen.int_range 0 2 st) (fun k -> id + 1 + (2 * k));
           leaf_count = QCheck.Gen.int_range 0 4 st;
           post = QCheck.Gen.int_range 0 5000 st;
           parent = (if i = 0 || QCheck.Gen.bool st then -1 else id - 1);
         }))

(* A list, where to cut it, and the format its head was written in
   ([None]: by the length rule; the others are the legacy all-'V' and
   all-'C' stores). Cuts cluster at block boundaries: a full last block
   (a multiple of 128), one row either side, anywhere. *)
let arbitrary_append =
  let b = Invfile.Plist_blocks.block_size in
  QCheck.make
    ~print:(fun (l, cut, codec, dense) ->
      Printf.sprintf "%d rows, cut at %d, head %s, %s" (L.length l) cut
        (match codec with None -> "by rule" | Some L.Varint -> "'V'" | Some L.Blocked -> "'C'")
        (if dense then "dense" else "sparse"))
    (fun st ->
      let n = QCheck.Gen.int_range 1 300 st in
      let dense = QCheck.Gen.bool st in
      let cut =
        QCheck.Gen.oneofl [ b - 1; b; b + 1; 2 * b; (2 * b) + 1; n - 1; n ] st
        |> fun c -> if QCheck.Gen.bool st then QCheck.Gen.int_range 0 n st else min n c
      in
      let codec = QCheck.Gen.oneofl [ None; Some L.Varint; Some L.Blocked ] st in
      (gen_rows ~n ~dense st, cut, codec, dense))

let prop_append_is_concat =
  Testutil.qcheck_case ~count:500 ~name:"append = to_bytes of the concatenation"
    arbitrary_append (fun (l, cut, codec, _) ->
      let n = L.length l in
      let head = L.to_bytes ?codec ~rows:(Array.init cut Fun.id) l in
      let tail = Array.init (n - cut) (fun k -> cut + k) in
      let want = L.to_bytes l in
      String.equal (L.append ~rows:tail head l) want
      && String.equal (L.append head (L.filter (fun i -> i >= cut) l)) want
      && L.payload_length want = n)

(* Append is given the payload's own bytes: a cut-short or mislabelled
   payload raises Corrupt as of_bytes does, and rows that do not follow
   the payload are refused. *)
let test_append_rejects () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun (n, codec) ->
      let l = gen_rows ~n ~dense:false st in
      let payload = L.to_bytes ?codec ~rows:(Array.init (n - 1) Fun.id) l in
      let last = L.filter (fun i -> i = n - 1) l in
      for len = 0 to String.length payload - 1 do
        match L.append (String.sub payload 0 len) last with
        | _ -> Alcotest.failf "%d rows cut to %d bytes: appended" n len
        | exception Storage.Codec.Corrupt _ -> ()
      done;
      (match L.append ("B" ^ String.sub payload 1 (String.length payload - 1)) last with
      | _ -> Alcotest.fail "retired tag appended"
      | exception Storage.Codec.Corrupt _ -> ());
      Alcotest.check_raises "rows that do not follow"
        (Invalid_argument "Plist.append: rows do not follow the payload") (fun () ->
          ignore (L.append payload (L.filter (fun i -> i = 0) l))))
    [ (5, None); (200, None); (300, Some L.Blocked); (150, Some L.Varint) ]

(* A store still holding a list in the retired bitpacked format: queries
   that touch it fail with Malformed naming the codec and the way out,
   check reports the payload, and repair rebuilds the index so answers
   match the naive scan again. *)
let test_bitpacked_collection_end_to_end () =
  let module E = Containment.Engine in
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let store = IF.store inv in
  (match store.Storage.Kv.get (IF.atom_key "UK") with
  | Some payload -> store.Storage.Kv.put (IF.atom_key "UK") ("B" ^ payload)
  | None -> Alcotest.fail "no list for UK");
  let q = Testutil.v "{UK, {A}}" in
  (match E.query inv q with
  | exception IF.Malformed m ->
    check_bool "names the codec" true (Testutil.contains m "retired bitpacked");
    check_bool "names the repair" true (Testutil.contains m "nscq repair")
  | _ -> Alcotest.fail "query over a 'B' list answered");
  check_bool "check reports the payload" true
    (List.exists
       (fun (p : Invfile.Integrity.problem) ->
         Testutil.contains p.Invfile.Integrity.detail "UK")
       (E.verify_store inv));
  let report = E.repair inv in
  check_bool "repair leaves no problem" true (report.E.problems_after = []);
  let naive = { E.default with E.algorithm = E.Naive_scan } in
  List.iter
    (fun s ->
      let q = Testutil.v s in
      Alcotest.(check (list int)) ("after repair: " ^ s)
        (E.query ~config:naive inv q).E.records (E.query inv q).E.records)
    [ "{UK, {A}}"; "{UK}"; "{London, UK}"; "{A, motorbike}" ]

(* A store written all-blocked, as stores were before the length rule,
   takes an insert that grows a list past one block and a delete that
   shrinks it back: each rewritten list follows the rule, the store stays
   consistent, and answers match the naive scan. *)
let test_blocked_store_grows () =
  let module E = Containment.Engine in
  let n = Invfile.Plist_blocks.block_size in
  let inv =
    Testutil.mem_collection
      (Testutil.licences_strings @ List.init n (fun i -> Printf.sprintf "{common, x%d}" (i mod 3)))
  in
  Testutil.recode_lists ~codec:L.Blocked inv;
  let format () =
    match (IF.store inv).Storage.Kv.get (IF.atom_key "common") with
    | Some payload -> L.codec_of_bytes payload
    | None -> Alcotest.fail "no list for common"
  in
  let naive = { E.default with E.algorithm = E.Naive_scan } in
  let agree ctx =
    (match E.verify_store inv with
    | [] -> ()
    | p :: _ -> Alcotest.failf "%s: %a" ctx Invfile.Integrity.pp_problem p);
    List.iter
      (fun s ->
        let q = Testutil.v s in
        Alcotest.(check (list int)) (ctx ^ ": " ^ s)
          (E.query ~config:naive inv q).E.records (E.query inv q).E.records)
      [ "{common}"; "{common, x1}"; "{UK, {A}}"; "{car}"; "{common, car}" ]
  in
  agree "all blocked";
  let id = Invfile.Updater.add_string inv "{common, car, {UK, {A, motorbike}}}" in
  check_bool "grown past a block: blocked" true (format () = L.Blocked);
  agree "after insert";
  check_bool "deleted" true (Invfile.Updater.delete_record inv id);
  check_bool "back to one block: varint" true (format () = L.Varint);
  agree "after delete"

(* --- atom dictionary & binary record format --- *)

let test_dict_roundtrip () =
  let store = Storage.Mem_store.create () in
  let d = Invfile.Dict.create store in
  let a = Invfile.Dict.intern d "alpha" in
  let b = Invfile.Dict.intern d "beta" in
  check_int "dense ids" 1 (b - a);
  check_int "idempotent" a (Invfile.Dict.intern d "alpha");
  Alcotest.(check string) "reverse" "beta" (Invfile.Dict.atom_of_id d b);
  Alcotest.(check (option int)) "find without alloc" None (Invfile.Dict.find d "gamma");
  check_int "size" 2 (Invfile.Dict.size d);
  (* persists across a fresh handle on the same store *)
  let d2 = Invfile.Dict.create store in
  Alcotest.(check (option int)) "persisted" (Some a) (Invfile.Dict.find d2 "alpha");
  check_int "allocation cursor persisted" 2
    (Invfile.Dict.intern d2 "gamma")

let test_value_codec_roundtrip () =
  let store = Storage.Mem_store.create () in
  let d = Invfile.Dict.create store in
  List.iter
    (fun s ->
      let v = Nested.Syntax.of_string s in
      let payload = Invfile.Value_codec.encode d v in
      Alcotest.check Testutil.value_testable ("binary roundtrip " ^ s) v
        (Invfile.Value_codec.decode d payload);
      Alcotest.check Testutil.value_testable ("syntax roundtrip " ^ s) v
        (Invfile.Value_codec.decode d (Invfile.Value_codec.encode_syntax v)))
    ([ "{}"; "{a}"; "{a, b, {c, {d, e}}, {f}}"; "{\"x y\", {\"{\"}}" ]
    @ Testutil.licences_strings)

let test_value_codec_compression () =
  (* repeated atoms across records shrink: ids replace strings *)
  let store = Storage.Mem_store.create () in
  let d = Invfile.Dict.create store in
  let v =
    Nested.Syntax.of_string
      "{a_rather_long_atom_name, {a_rather_long_atom_name, {a_rather_long_atom_name}}}"
  in
  let binary = Invfile.Value_codec.encode d v in
  (* after the first record interned the atom, later records pay ~1 byte *)
  let binary2 = Invfile.Value_codec.encode d v in
  check_bool "second record small" true (String.length binary2 < 12);
  check_bool "smaller than syntax" true
    (String.length binary2 < String.length (Nested.Syntax.to_string v));
  check_int "encoding is stable" (String.length binary) (String.length binary2)

let prop_value_codec_roundtrip =
  Testutil.qcheck_case ~name:"binary record codec roundtrip"
    Testutil.arbitrary_value (fun v ->
      QCheck.assume (Nested.Value.is_set v);
      let d = Invfile.Dict.create (Storage.Mem_store.create ()) in
      Nested.Value.equal v (Invfile.Value_codec.decode d (Invfile.Value_codec.encode d v)))

let test_binary_record_collection () =
  let store = Storage.Mem_store.create () in
  let builder = Invfile.Builder.create ~record_format:`Binary store in
  List.iter
    (fun s -> ignore (Invfile.Builder.add_string builder s))
    Testutil.licences_strings;
  let inv = Invfile.Builder.finish builder in
  check_bool "format recorded" true (IF.record_format inv = `Binary);
  Alcotest.check Testutil.value_testable "values decode"
    (Nested.Syntax.of_string (List.nth Testutil.licences_strings 1))
    (IF.record_value inv 1);
  (* updates keep the binary format *)
  let id = Invfile.Updater.add_string inv "{Oslo, NO, {NO, {B}}}" in
  Alcotest.check Testutil.value_testable "updated record decodes"
    (Nested.Syntax.of_string "{Oslo, NO, {NO, {B}}}")
    (IF.record_value inv id);
  check_bool "stored in binary" true
    (match (IF.store inv).Storage.Kv.get ("r:" ^ string_of_int id) with
    | Some payload -> payload.[0] = 'B'
    | None -> false)

(* --- stats --- *)

let test_stats_compute () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let st = Invfile.Stats.compute inv in
  check_int "records" 4 st.Invfile.Stats.records;
  check_int "internal nodes" 20 st.Invfile.Stats.internal_nodes;
  check_int "max depth" 3 st.Invfile.Stats.max_depth;
  check_int "leaves: count all leaf occurrences" 39 st.Invfile.Stats.leaves;
  check_bool "atoms match handle" true
    (st.Invfile.Stats.atoms = IF.atom_count inv);
  (* histograms cover everything *)
  let total_by_depth =
    List.fold_left (fun acc (_, c) -> acc + c) 0 st.Invfile.Stats.depth_histogram
  in
  check_int "depth histogram total" 20 total_by_depth;
  let atoms_in_hist =
    List.fold_left (fun acc (_, c) -> acc + c) 0 st.Invfile.Stats.posting_histogram
  in
  check_int "posting histogram total" st.Invfile.Stats.atoms atoms_in_hist;
  (* the licences data has no list longer than 8 postings: buckets must
     reflect actual lengths, not payload artifacts *)
  List.iter
    (fun (bucket, _) -> check_bool "bucket bounded by longest list" true (bucket <= 8))
    st.Invfile.Stats.posting_histogram;
  check_bool "singleton lists exist" true
    (List.mem_assoc 1 st.Invfile.Stats.posting_histogram);
  check_bool "skew in [0,1]" true
    (let s = Invfile.Stats.skew_estimate st in
     s >= 0. && s <= 1.)

let test_stats_skew_orders () =
  let mk dist seed =
    Containment.Collection.of_values
      (Datagen.Synthetic.values
         (Datagen.Synthetic.make ~seed
            ~params:(Datagen.Synthetic.params_of_shape Datagen.Synthetic.Wide)
            dist)
         300)
  in
  let uniform = Invfile.Stats.compute (mk Datagen.Synthetic.Uniform 31) in
  let skewed = Invfile.Stats.compute (mk (Datagen.Synthetic.Zipfian 0.9) 31) in
  check_bool "zipf collection reads as more skewed" true
    (Invfile.Stats.skew_estimate skewed > Invfile.Stats.skew_estimate uniform)

let () =
  Alcotest.run "invfile"
    [
      ( "plist",
        [
          Alcotest.test_case "of_list" `Quick test_of_list_sorts_and_rejects_dups;
          Alcotest.test_case "find/mem" `Quick test_find_mem;
          Alcotest.test_case "inter" `Quick test_inter;
          Alcotest.test_case "inter gallop" `Quick test_inter_gallop_path;
          Alcotest.test_case "inter_many" `Quick test_inter_many;
          Alcotest.test_case "union with counts" `Quick test_union_with_counts;
          Alcotest.test_case "leaf-count filters" `Quick test_leaf_count_filters;
          prop_inter_correct;
        ] );
      ( "joins",
        [
          Alcotest.test_case "▷◁ paper example" `Quick test_join_child_paper_example;
          Alcotest.test_case "head propagation" `Quick test_join_child_propagates_head;
          Alcotest.test_case "descendant join" `Quick test_join_descendant;
          Alcotest.test_case "idset covers" `Quick test_idset_covers;
          Alcotest.test_case "covers_descendant" `Quick test_covers_descendant;
        ] );
      ( "join specs",
        [ prop_join_child_spec; prop_join_descendant_spec ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_plist_codec_roundtrip;
          prop_codec_roundtrip;
        ] );
      ( "builder",
        [
          Alcotest.test_case "Table 2 postings" `Quick test_builder_reproduces_table2;
          Alcotest.test_case "metadata" `Quick test_builder_metadata;
          Alcotest.test_case "record values" `Quick test_builder_record_values;
          Alcotest.test_case "node table" `Quick test_builder_node_table;
          Alcotest.test_case "top atoms" `Quick test_builder_top_atoms;
          Alcotest.test_case "record_tree ids" `Quick test_record_tree_ids_match;
          Alcotest.test_case "malformed store" `Quick test_open_store_missing_meta;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "retired bitpacked tag" `Quick test_retired_bitpacked_tag;
          Alcotest.test_case "format follows length" `Quick test_format_follows_length;
          Alcotest.test_case "blocked store takes insert and delete" `Quick
            test_blocked_store_grows;
          prop_codecs_agree;
          prop_append_is_concat;
          Alcotest.test_case "append rejects corrupt payloads" `Quick
            test_append_rejects;
          Alcotest.test_case "bitpacked collection" `Quick
            test_bitpacked_collection_end_to_end;
        ] );
      ( "record formats",
        [
          Alcotest.test_case "dict" `Quick test_dict_roundtrip;
          Alcotest.test_case "value codec roundtrip" `Quick test_value_codec_roundtrip;
          Alcotest.test_case "compression" `Quick test_value_codec_compression;
          prop_value_codec_roundtrip;
          Alcotest.test_case "binary collection end-to-end" `Quick
            test_binary_record_collection;
        ] );
      ( "stats",
        [
          Alcotest.test_case "compute" `Quick test_stats_compute;
          Alcotest.test_case "skew ordering" `Quick test_stats_skew_orders;
        ] );
      ( "cache",
        [
          Alcotest.test_case "static preload" `Quick test_cache_static_preload_and_bounds;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "lfu eviction" `Quick test_cache_lfu_eviction;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "attached cache hits" `Quick test_attached_cache_hits;
          Alcotest.test_case "scopes nest" `Quick test_scopes_nest;
          Alcotest.test_case "cursor resolution" `Quick test_cursor_resolution;
          prop_lookup_accounting;
        ] );
    ]
