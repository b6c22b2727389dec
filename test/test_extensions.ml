(* Tests for the extensions beyond the paper's core: the external-memory
   stack, cursors over encoded lists, incremental index maintenance,
   the similarity join, selectivity-ordered top-down, and the explain/join
   engine APIs. *)

module E = Containment.Engine
module S = Containment.Semantics
module IF = Invfile.Inverted_file
module R = Invfile.Plist_ref

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_records = Alcotest.(check (list int))

(* --- Ext_stack --- *)

let with_ext_stack ?buffer_items f () =
  Testutil.with_temp_path ".stk" (fun path ->
      let s = Storage.Ext_stack.create ?buffer_items path in
      Fun.protect ~finally:(fun () -> Storage.Ext_stack.close s) (fun () -> f s))

let test_ext_stack_lifo =
  with_ext_stack ~buffer_items:4 (fun s ->
      for i = 1 to 20 do
        Storage.Ext_stack.push s (string_of_int i)
      done;
      check_int "length" 20 (Storage.Ext_stack.length s);
      check_bool "spilled to disk" true (Storage.Ext_stack.spilled_items s > 0);
      for i = 20 downto 1 do
        Alcotest.(check (option string))
          "lifo order"
          (Some (string_of_int i))
          (Storage.Ext_stack.pop s)
      done;
      check_bool "empty" true (Storage.Ext_stack.is_empty s);
      Alcotest.(check (option string)) "pop empty" None (Storage.Ext_stack.pop s))

let test_ext_stack_interleaved =
  with_ext_stack ~buffer_items:2 (fun s ->
      (* mixed pushes and pops across spill boundaries *)
      let model = Stack.create () in
      let rng = Random.State.make [| 99 |] in
      for i = 0 to 500 do
        if Random.State.bool rng then begin
          let v = "v" ^ string_of_int i in
          Storage.Ext_stack.push s v;
          Stack.push v model
        end
        else begin
          let expected = Stack.pop_opt model in
          let got = Storage.Ext_stack.pop s in
          if expected <> got then
            Alcotest.failf "divergence at step %d: model %s, got %s" i
              (Option.value ~default:"-" expected)
              (Option.value ~default:"-" got)
        end
      done;
      check_int "final lengths agree" (Stack.length model) (Storage.Ext_stack.length s))

let test_ext_stack_top_and_clear =
  with_ext_stack ~buffer_items:2 (fun s ->
      List.iter (Storage.Ext_stack.push s) [ "a"; "b"; "c"; "d"; "e" ];
      Alcotest.(check (option string)) "top" (Some "e") (Storage.Ext_stack.top s);
      check_int "top does not pop" 5 (Storage.Ext_stack.length s);
      Storage.Ext_stack.clear s;
      check_bool "cleared" true (Storage.Ext_stack.is_empty s);
      Storage.Ext_stack.push s "again";
      Alcotest.(check (option string)) "usable after clear" (Some "again")
        (Storage.Ext_stack.pop s))

let test_ext_stack_binary_payloads =
  with_ext_stack ~buffer_items:1 (fun s ->
      let payloads = [ ""; "\x00\x01\x02"; String.make 10_000 '\xff' ] in
      List.iter (Storage.Ext_stack.push s) payloads;
      List.iter
        (fun expected ->
          Alcotest.(check (option string)) "binary" (Some expected)
            (Storage.Ext_stack.pop s))
        (List.rev payloads))

(* --- Plist_stream --- *)

let plist specs =
  R.to_plist
    (Array.of_list
       (List.map
          (fun n -> { R.node = n; children = [| n + 1 |]; leaf_count = 1; post = n; parent = -1 })
          specs))

(* A cursor over the encoded payload (streamed) and one over the decoded
   list (materialized, as a cached list is read). *)
let encoded l = Invfile.Plist_stream.cursor_of_bytes (Invfile.Plist.to_bytes l)
let decoded l = Invfile.Plist_stream.cursor_of_plist l

let test_stream_cursor () =
  let l = plist [ 2; 5; 9 ] in
  let module St = Invfile.Plist_stream in
  let c = St.cursor_of_bytes (Invfile.Plist.to_bytes l) in
  check_int "remaining" 3 (St.remaining c);
  check_int "head" 2 (St.head c);
  check_int "head does not consume" 3 (St.remaining c);
  check_int "seek lands on 9" 9 (St.seek c 6);
  check_int "head fields" 9 (Invfile.Plist.post (St.head_list c) (St.head_row c));
  St.advance c;
  check_bool "exhausted" true (St.head c = St.eof)

let test_stream_inter_matches_plist () =
  let a = plist [ 1; 3; 5; 7; 9; 100 ] in
  let b = plist [ 3; 4; 7; 100 ] in
  let c = plist [ 3; 7; 42; 100 ] in
  let streamed = Invfile.Plist_stream.inter_many (List.map encoded [ a; b; c ]) in
  let materialized = Invfile.Plist_stream.inter_many (List.map decoded [ a; b; c ]) in
  Alcotest.(check (list int))
    "same intersection"
    (Array.to_list (Invfile.Plist.nodes materialized))
    (Array.to_list (Invfile.Plist.nodes streamed))

let prop_stream_inter =
  Testutil.qcheck_case ~name:"streamed = materialized intersection"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 40) (QCheck.int_bound 60))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 40) (QCheck.int_bound 60)))
    (fun (xs, ys) ->
      let mk l = plist (List.sort_uniq Int.compare l) in
      let a = mk xs and b = mk ys in
      let streamed = Invfile.Plist_stream.inter_many [ encoded a; encoded b ] in
      let materialized = Invfile.Plist_stream.inter_many [ decoded a; decoded b ] in
      Invfile.Plist.nodes streamed = Invfile.Plist.nodes materialized)

let prop_stream_union =
  Testutil.qcheck_case ~name:"streamed = materialized union-with-counts"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_bound 40))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_bound 40)))
    (fun (xs, ys) ->
      let mk l = plist (List.sort_uniq Int.compare l) in
      let a = mk xs and b = mk ys in
      let streamed = Invfile.Plist_stream.union_with_counts [ encoded a; encoded b ] in
      let materialized =
        Invfile.Plist_stream.union_with_counts [ decoded a; decoded b ]
      in
      let rows (l, counts) = (Invfile.Plist.nodes l, counts) in
      rows streamed = rows materialized)

(* --- Updater --- *)

let test_updater_add () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let id =
    Invfile.Updater.add_string inv "{Utrecht, NL, {NL, {B, car}}, {UK, {A, motorbike}}}"
  in
  check_int "new record id" 4 id;
  check_int "count" 5 (IF.record_count inv);
  (* new record is found by queries *)
  check_records "joins existing results" [ 0; 1; 3; 4 ]
    (E.query inv (Testutil.v "{{UK, {A, motorbike}}}")).E.records;
  check_records "new atoms indexed" [ 4 ] (E.query inv (Testutil.v "{Utrecht}")).E.records;
  (* ids remain consistent *)
  check_int "root of new record" 20 (IF.roots inv).(4);
  Alcotest.check Testutil.value_testable "stored value"
    (Testutil.v "{Utrecht, NL, {NL, {B, car}}, {UK, {A, motorbike}}}")
    (IF.record_value inv 4)

let test_updater_add_matches_rebuild () =
  (* incrementally built index answers exactly like a from-scratch build *)
  let base = List.filteri (fun i _ -> i < 2) Testutil.licences_strings in
  let extra = List.filteri (fun i _ -> i >= 2) Testutil.licences_strings in
  let incremental = Testutil.mem_collection base in
  List.iter (fun s -> ignore (Invfile.Updater.add_string incremental s)) extra;
  let scratch = Testutil.mem_collection Testutil.licences_strings in
  List.iter
    (fun qs ->
      let q = Testutil.v qs in
      check_records ("same results for " ^ qs)
        (E.query scratch q).E.records
        (E.query incremental q).E.records)
    [ "{{UK, {A, motorbike}}}"; "{USA}"; "{Paris, FR}"; "{{FR, {B}}}"; "{Mars}" ];
  (* node table stayed consistent (leafless query exercises it) *)
  check_records "leafless query"
    (E.query scratch (Testutil.v "{{}}")).E.records
    (E.query incremental (Testutil.v "{{}}")).E.records

let test_updater_delete () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  check_bool "delete record 1" true (Invfile.Updater.delete_record inv 1);
  check_bool "already deleted" false (Invfile.Updater.delete_record inv 1);
  check_bool "is_deleted" true (Invfile.Updater.is_deleted inv 1);
  check_bool "others alive" false (Invfile.Updater.is_deleted inv 0);
  (* Tim no longer matches anything *)
  check_records "Tim gone" [] (E.query inv (Testutil.v "{Boston}")).E.records;
  check_records "others unaffected" [ 0; 3 ]
    (E.query inv (Testutil.v "{{UK, {A, motorbike}}}")).E.records;
  (* record ids of others unchanged *)
  check_records "Paris still record 2" [ 2 ] (E.query inv (Testutil.v "{Paris}")).E.records

let test_updater_delete_then_add () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  ignore (Invfile.Updater.delete_record inv 0);
  let id = Invfile.Updater.add_string inv "{London, NEW}" in
  check_int "fresh id, slots not reused" 4 id;
  check_records "London only in the new record" [ 4 ]
    (E.query inv (Testutil.v "{London}")).E.records

let test_updater_cache_invalidation () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  Containment.Collection.with_static_cache inv ~budget:50;
  (* warm the cache *)
  ignore (E.query inv (Testutil.v "{{UK, {A, motorbike}}}"));
  ignore (Invfile.Updater.add_string inv "{X, {UK, {A, motorbike}}}");
  check_records "cached lists invalidated on update" [ 0; 1; 3; 4 ]
    (E.query inv (Testutil.v "{{UK, {A, motorbike}}}")).E.records

let prop_updater_equivalent_to_rebuild =
  Testutil.qcheck_case ~count:100 ~name:"incremental = rebuilt (random splits)"
    (QCheck.pair (Testutil.arbitrary_collection ~records:10 ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (List.length values >= 2);
      let k = List.length values / 2 in
      let base = List.filteri (fun i _ -> i < k) values in
      let extra = List.filteri (fun i _ -> i >= k) values in
      let incremental = Containment.Collection.of_values base in
      List.iter (fun v -> ignore (Invfile.Updater.add_value incremental v)) extra;
      let scratch = Containment.Collection.of_values values in
      (E.query incremental q).E.records = (E.query scratch q).E.records)

(* --- Merger --- *)

let queries_for_merge =
  [ "{{UK, {A, motorbike}}}"; "{USA}"; "{Paris, FR}"; "{Mars}"; "{{}}";
    "{London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}" ]

let assert_same_answers a b =
  List.iter
    (fun qs ->
      let q = Testutil.v qs in
      check_records ("merge answers agree for " ^ qs)
        (E.query a q).E.records
        (E.query b q).E.records)
    queries_for_merge

let test_merger_equals_scratch () =
  let first = List.filteri (fun i _ -> i < 2) Testutil.licences_strings in
  let second = List.filteri (fun i _ -> i >= 2) Testutil.licences_strings in
  let dst = Testutil.mem_collection first in
  let src = Testutil.mem_collection second in
  Invfile.Merger.append ~dst ~src;
  let scratch = Testutil.mem_collection Testutil.licences_strings in
  check_int "record count" 4 (IF.record_count dst);
  check_int "node count" (IF.node_count scratch) (IF.node_count dst);
  check_int "atom count" (IF.atom_count scratch) (IF.atom_count dst);
  Alcotest.(check (array int)) "roots" (IF.roots scratch) (IF.roots dst);
  assert_same_answers scratch dst;
  (* postings agree exactly *)
  List.iter
    (fun atom ->
      check_bool ("postings equal for " ^ atom) true
        (R.of_plist (IF.lookup scratch atom) = R.of_plist (IF.lookup dst atom)))
    [ "UK"; "A"; "motorbike"; "Paris"; "Austin" ]

let test_merger_skips_tombstones () =
  let dst = Testutil.mem_collection (List.filteri (fun i _ -> i < 1) Testutil.licences_strings) in
  let src = Testutil.mem_collection (List.filteri (fun i _ -> i >= 1) Testutil.licences_strings) in
  (* delete Tim (src record 0) before merging *)
  check_bool "delete in src" true (Invfile.Updater.delete_record src 0);
  Invfile.Merger.append ~dst ~src;
  check_int "only live records copied" 3 (IF.record_count dst);
  check_records "Tim gone" [] (E.query dst (Testutil.v "{Boston}")).E.records;
  check_records "Paris carried over" [ 1 ] (E.query dst (Testutil.v "{Paris}")).E.records;
  (* updates still work after a merge *)
  let id = Invfile.Updater.add_string dst "{Oslo, NO}" in
  check_records "post-merge insert" [ id ] (E.query dst (Testutil.v "{Oslo}")).E.records

let test_merger_repeated () =
  (* fold three shards together *)
  let shard l = Testutil.mem_collection l in
  let dst = shard [ List.nth Testutil.licences_strings 0 ] in
  Invfile.Merger.append ~dst ~src:(shard [ List.nth Testutil.licences_strings 1 ]);
  Invfile.Merger.append ~dst ~src:(shard [ List.nth Testutil.licences_strings 2 ]);
  Invfile.Merger.append ~dst ~src:(shard [ List.nth Testutil.licences_strings 3 ]);
  assert_same_answers (Testutil.mem_collection Testutil.licences_strings) dst

let prop_merger_equals_scratch =
  Testutil.qcheck_case ~count:80 ~name:"merged shards = scratch build"
    (QCheck.triple (Testutil.arbitrary_collection ~records:6 ())
       (Testutil.arbitrary_collection ~records:6 ())
       Testutil.arbitrary_leafy_value)
    (fun (a, b, q) ->
      let a = List.filter Nested.Value.is_set a
      and b = List.filter Nested.Value.is_set b in
      QCheck.assume (a <> [] && b <> []);
      let dst = Containment.Collection.of_values a in
      let src = Containment.Collection.of_values b in
      Invfile.Merger.append ~dst ~src;
      let scratch = Containment.Collection.of_values (a @ b) in
      (E.query dst q).E.records = (E.query scratch q).E.records
      && IF.roots dst = IF.roots scratch)

(* --- integrity checker --- *)

let test_integrity_clean_and_after_updates () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  Alcotest.(check int) "fresh collection clean" 0
    (List.length (Invfile.Integrity.check inv));
  ignore (Invfile.Updater.add_string inv "{Oslo, NO, {NO, {B}}}");
  ignore (Invfile.Updater.delete_record inv 1);
  Alcotest.(check int) "clean after updates" 0
    (List.length (Invfile.Integrity.check inv));
  let dst = inv in
  Invfile.Merger.append ~dst ~src:(Testutil.mem_collection [ "{merged, m}" ]);
  Alcotest.(check int) "clean after merge" 0
    (List.length (Invfile.Integrity.check dst))

let test_integrity_detects_corruption () =
  let broken what mutate =
    let inv = Testutil.mem_collection Testutil.licences_strings in
    mutate inv;
    if Invfile.Integrity.check inv = [] then
      Alcotest.failf "%s not detected" what
  in
  let get inv key = Option.get ((IF.store inv).Storage.Kv.get key) in
  let put inv key payload = (IF.store inv).Storage.Kv.put key payload in
  broken "missing list" (fun inv ->
      ignore ((IF.store inv).Storage.Kv.delete "aLondon"));
  broken "phantom list" (fun inv ->
      put inv "aPhantom"
        (Invfile.Plist.to_bytes
           (R.to_plist
              [| { R.node = 0; children = [||]; leaf_count = 1; post = 0; parent = -1 } |])));
  broken "stale posting" (fun inv ->
      let l = IF.lookup inv "London" in
      let extra = { R.node = 9; children = [||]; leaf_count = 1; post = 4; parent = -1 } in
      put inv "aLondon"
        (Invfile.Plist.to_bytes (R.to_plist (Array.append (R.of_plist l) [| extra |]))));
  broken "tampered record" (fun inv -> put inv "r:0" "S{tampered}");
  broken "trailing byte" (fun inv -> put inv "aUK" (get inv "aUK" ^ "\000"));
  broken "node table missing a row" (fun inv ->
      let table = Invfile.Plist.of_bytes (get inv IF.meta_nodes) in
      put inv IF.meta_nodes
        (Invfile.Plist.to_bytes (Invfile.Plist.filter (fun i -> i <> 3) table)));
  broken "tombstoned record's postings restored" (fun inv ->
      let saved = List.map (fun key -> (key, get inv key)) [ "aUK"; "aUSA"; "aBoston" ] in
      check_bool "delete" true (Invfile.Updater.delete_record inv 1);
      List.iter (fun (key, payload) -> put inv key payload) saved);
  broken "overlapping records" (fun inv ->
      let roots = Array.copy (IF.roots inv) in
      roots.(1) <- roots.(1) - 1;
      put inv IF.meta_roots (Storage.Codec.encode_int_array roots);
      IF.refresh inv);
  broken "phantom record key" (fun inv ->
      put inv (IF.record_key (IF.record_count inv)) "S{ghost}")

(* A payload that does not decode is a problem to report, not an
   exception out of the check. *)
let test_integrity_reports_undecodable () =
  List.iter
    (fun (what, key, payload) ->
      let inv = Testutil.mem_collection Testutil.licences_strings in
      (IF.store inv).Storage.Kv.put key payload;
      match Invfile.Integrity.check inv with
      | [] -> Alcotest.failf "%s not detected" what
      | _ :: _ -> ()
      | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e))
    [
      ("undecodable record", IF.record_key 1, "S{Boston");
      ("undecodable node table", IF.meta_nodes, "Zjunk");
    ]

(* Legacy stores hold every list in one format: each payload is checked
   in its own format, so they check clean, also once updates mix in
   lists written by the length rule. *)
let test_integrity_legacy_codecs () =
  List.iter
    (fun codec ->
      let inv =
        Testutil.mem_collection
          (List.init 300 (fun i -> Printf.sprintf "{a, b, r%d, {a, c, {b, d%d}}}" i (i mod 7)))
      in
      Testutil.recode_lists ~codec inv;
      check_int "recoded store clean" 0 (List.length (Invfile.Integrity.check inv));
      ignore (Invfile.Updater.add_string inv "{a, fresh, {c}}");
      ignore (Invfile.Updater.delete_record inv 4);
      check_int "clean after updates" 0 (List.length (Invfile.Integrity.check inv)))
    [ Invfile.Plist.Varint; Invfile.Plist.Blocked ]

(* --- hash store optimize --- *)

let test_hash_optimize () =
  Testutil.with_temp_path ".tch" (fun path ->
      let s = Storage.Hash_store.create ~buckets:64 path in
      for i = 0 to 199 do
        s.Storage.Kv.put "churn" (String.make 100 (Char.chr (65 + (i mod 26))))
      done;
      s.Storage.Kv.put "keep" "me";
      ignore (s.Storage.Kv.delete "churn");
      let before = Storage.Hash_store.file_size s in
      Storage.Hash_store.optimize s;
      let after = Storage.Hash_store.file_size s in
      check_bool "file shrank" true (after < before);
      Alcotest.(check (option string)) "live data intact" (Some "me")
        (s.Storage.Kv.get "keep");
      check_int "count" 1 (s.Storage.Kv.length ());
      (* still works after optimize, and survives reopen *)
      s.Storage.Kv.put "new" "entry";
      s.Storage.Kv.close ();
      let s2 = Storage.Hash_store.open_existing path in
      Alcotest.(check (option string)) "reopen" (Some "entry") (s2.Storage.Kv.get "new");
      s2.Storage.Kv.close ())

(* --- similarity join --- *)

let test_similarity_thresholds () =
  let inv = Testutil.mem_collection [ "{a, b, c, d}"; "{a, b, x, y}"; "{a, x, y, z}" ] in
  let q = Testutil.v "{a, b, c, d}" in
  let at r =
    (E.query ~config:{ E.default with E.join = S.Similarity r } inv q).E.records
  in
  check_records "r=1.0 (all four)" [ 0 ] (at 1.0);
  check_records "r=0.5 (two of four)" [ 0; 1 ] (at 0.5);
  check_records "r=0.25 (one of four)" [ 0; 1; 2 ] (at 0.25)

let test_similarity_nested () =
  let inv = Testutil.mem_collection [ "{a, b, {c, d}}"; "{a, b, {c, x}}" ] in
  let q = Testutil.v "{a, b, {c, d}}" in
  let at r =
    (E.query ~config:{ E.default with E.join = S.Similarity r } inv q).E.records
  in
  check_records "r=1 needs full overlap at every node" [ 0 ] (at 1.0);
  check_records "r=0.5" [ 0; 1 ] (at 0.5)

let test_similarity_validation () =
  let inv = Testutil.mem_collection [ "{a}" ] in
  match E.query ~config:{ E.default with E.join = S.Similarity 1.5 } inv (Testutil.v "{a}") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ratio > 1 must be rejected"

let prop_similarity_matches_oracle =
  Testutil.qcheck_case ~count:150 ~name:"similarity = oracle"
    (QCheck.triple (Testutil.arbitrary_collection ()) Testutil.arbitrary_leafy_value
       (QCheck.oneofl [ 0.3; 0.5; 1.0 ]))
    (fun (values, q, r) ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let got =
        (E.query ~config:{ E.default with E.join = S.Similarity r } inv q).E.records
      in
      let expected =
        List.mapi (fun i v -> (i, v)) values
        |> List.filter_map (fun (i, s) ->
               if Containment.Embed.check (S.Similarity r) S.Hom ~q ~s then Some i
               else None)
      in
      got = expected)

let prop_similarity_1_equals_containment_on_flat =
  Testutil.qcheck_case ~count:100 ~name:"similarity 1.0 = containment on flat sets"
    (Testutil.arbitrary_collection ())
    (fun values ->
      let values =
        List.filter
          (fun v -> Nested.Value.is_set v && Nested.Value.subsets v = [])
          values
      in
      QCheck.assume (values <> []);
      let q = List.hd values in
      QCheck.assume (Nested.Value.leaves q <> []);
      let inv = Containment.Collection.of_values values in
      (E.query ~config:{ E.default with E.join = S.Similarity 1.0 } inv q).E.records
      = (E.query inv q).E.records)

(* --- selectivity ordering --- *)

let prop_td_order_irrelevant_for_results =
  Testutil.qcheck_case ~count:150 ~name:"selectivity order preserves results"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let base =
        (E.query ~config:{ E.default with E.algorithm = E.Top_down } inv q).E.records
      in
      let ordered =
        (E.query
           ~config:
             {
               E.default with
               E.algorithm = E.Top_down;
               E.td_order = Containment.Top_down.Selectivity;
             }
           inv q)
          .E.records
      in
      base = ordered)

(* --- low-memory modes (the paper's 'other assumptions') --- *)

(* One candidate path, whatever the cache: with a small Static cache some
   atoms are read decoded and the rest from their payloads, an Lru cache
   decodes and keeps, no cache reads every payload — and a traced query
   resolves through its per-query table. All give identical records. *)
let prop_cached_equals_uncached =
  Testutil.qcheck_case ~count:150 ~name:"cached = uncached (all joins)"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let records config cache =
        (match cache with
        | None -> IF.detach_cache inv
        | Some policy -> IF.attach_cache inv (Invfile.Cache.create policy ~capacity:2));
        let plain = (E.query ~config inv q).E.records in
        let traced = (E.query ~config ~trace:(Obs.Trace.create "q") inv q).E.records in
        if plain <> traced then Alcotest.fail "traced query diverged";
        plain
      in
      List.for_all
        (fun join ->
          let config = { E.default with E.join } in
          let uncached = records config None in
          List.for_all
            (fun policy -> records config (Some policy) = uncached)
            [ Invfile.Cache.Static; Invfile.Cache.Lru ])
        [ S.Containment; S.Equality; S.Superset; S.Overlap 1; S.Overlap 2;
          S.Similarity 0.5 ])

let test_spill_to_equals_in_memory () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  Testutil.with_temp_path ".stk" (fun path ->
      List.iter
        (fun qs ->
          let q = Testutil.v qs in
          check_records ("spilled = in-memory for " ^ qs)
            (E.query inv q).E.records
            (E.query ~config:{ E.default with E.spill_to = Some path } inv q).E.records)
        [ "{{UK, {A, motorbike}}}"; "{USA, {UK, {A, motorbike}}}"; "{Mars}"; "{{}}" ])

let prop_spill_to_equivalent =
  Testutil.qcheck_case ~count:100 ~name:"external stack = in-memory stack"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      Testutil.with_temp_path ".stk" (fun path ->
          (E.query inv q).E.records
          = (E.query ~config:{ E.default with E.spill_to = Some path } inv q).E.records))

let test_tombstones_and_scans () =
  (* regression: the naive scan and the Bloom prefilter must skip
     tombstoned records rather than fail on them (found by fuzz/fuzz.exe) *)
  let inv = Testutil.mem_collection Testutil.licences_strings in
  ignore (Invfile.Updater.delete_record inv 1);
  let q = Testutil.v "{{UK, {A, motorbike}}}" in
  check_records "naive skips tombstones" [ 0; 3 ]
    (E.query ~config:{ E.default with E.algorithm = E.Naive_scan } inv q).E.records;
  let fi = Containment.Filter_index.build inv in
  check_records "prefilter skips tombstones" [ 0; 3 ]
    (E.query ~config:{ E.default with E.filter_index = Some fi } inv q).E.records;
  check_records "anywhere scope too" [ 0; 3 ]
    (E.query
       ~config:{ E.default with E.algorithm = E.Naive_scan; E.scope = E.Anywhere }
       inv (Testutil.v "{UK, {A, motorbike}}"))
      .E.records

(* --- signature-scan baseline --- *)

let test_signature_scan_matches_indexed () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let fi = Containment.Filter_index.build inv in
  let config =
    { E.default with E.algorithm = E.Signature_scan; E.filter_index = Some fi }
  in
  List.iter
    (fun qs ->
      let q = Testutil.v qs in
      check_records ("signature = indexed for " ^ qs)
        (E.query inv q).E.records
        (E.query ~config inv q).E.records)
    [ "{{UK, {A, motorbike}}}"; "{USA}"; "{Mars}"; "{Paris, FR}"; "{{}}" ]

let test_signature_scan_requires_filter () =
  let inv = Testutil.mem_collection [ "{a}" ] in
  match
    E.query ~config:{ E.default with E.algorithm = E.Signature_scan } inv (Testutil.v "{a}")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument without a filter index"

let prop_signature_scan_equivalent =
  Testutil.qcheck_case ~count:100 ~name:"signature scan = bottom-up"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let fi = Containment.Filter_index.build inv in
      let config =
        { E.default with E.algorithm = E.Signature_scan; E.filter_index = Some fi }
      in
      (E.query inv q).E.records = (E.query ~config inv q).E.records)

(* --- multicore execution --- *)

let test_parallel_matches_sequential () =
  Testutil.with_temp_path ".tch" (fun path ->
      let store = Storage.Hash_store.create ~buckets:256 path in
      let builder = Invfile.Builder.create store in
      List.iter
        (fun s -> ignore (Invfile.Builder.add_string builder s))
        Testutil.licences_strings;
      let inv0 = Invfile.Builder.finish builder in
      let queries =
        List.map Testutil.v
          [ "{{UK, {A, motorbike}}}"; "{USA}"; "{Mars}"; "{Paris}"; "{{FR, {B}}}" ]
      in
      let seq_stats = E.run_workload inv0 queries in
      IF.close inv0;
      let open_handle () = IF.open_store (Storage.Hash_store.open_existing path) in
      List.iter
        (fun domains ->
          let par =
            Containment.Parallel.run_workload ~domains ~open_handle ~cache_budget:10
              queries
          in
          check_int
            (Printf.sprintf "results equal at %d domains" domains)
            seq_stats.E.results_total par.Containment.Parallel.results_total;
          check_int
            (Printf.sprintf "positives equal at %d domains" domains)
            seq_stats.E.positives par.Containment.Parallel.positives)
        [ 1; 2; 3 ])

(* --- query minimization --- *)

let test_minimize_examples () =
  let m s = Nested.Syntax.to_string (Containment.Minimize.minimize (Testutil.v s)) in
  (* {a} is implied by {a, b} *)
  Alcotest.(check string) "weaker sibling dropped" "{x, {a, b}}" (m "{x, {a}, {a, b}}");
  (* structure-implied: {a} implied by {a, {c}} *)
  Alcotest.(check string) "shallow implied by deep" "{{a, {c}}}" (m "{{a}, {a, {c}}}");
  (* incomparable siblings both stay *)
  Alcotest.(check string) "incomparable kept" "{{a}, {b}}" (m "{{a}, {b}}");
  (* recursion reaches inner levels *)
  Alcotest.(check string) "inner minimization" "{{x, {a, b}}}" (m "{{x, {a}, {a, b}}}");
  (* already-minimal values untouched *)
  Alcotest.(check bool) "is_minimal" true
    (Containment.Minimize.is_minimal (Testutil.v "{a, {b}, {c}}"))

let prop_minimize_preserves_answers =
  Testutil.qcheck_case ~count:200 ~name:"minimized query ≡ original (hom/homeo)"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_value)
    (fun (values, q) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      List.for_all
        (fun embedding ->
          let plain =
            (E.query ~config:{ E.default with E.embedding } inv q).E.records
          in
          let minimized =
            (E.query ~config:{ E.default with E.embedding; E.minimize = true } inv q)
              .E.records
          in
          plain = minimized)
        [ S.Hom; S.Homeo; S.Homeo_full ])

let prop_minimize_idempotent_and_smaller =
  Testutil.qcheck_case ~count:200 ~name:"minimize is idempotent and non-increasing"
    Testutil.arbitrary_value (fun q ->
      QCheck.assume (Nested.Value.is_set q);
      let m = Containment.Minimize.minimize q in
      Containment.Minimize.is_minimal m
      && Nested.Value.internal_count m <= Nested.Value.internal_count q)

(* --- wildcard (prefix) query leaves --- *)

let wc config = { config with E.wildcards = true }

let test_wildcard_basic () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  check_records "prefix at root" [ 0 ]
    (E.query ~config:(wc E.default) inv (Testutil.v "{Lon*}")).E.records;
  check_records "prefix inside structure" [ 0; 1; 3 ]
    (E.query ~config:(wc E.default) inv (Testutil.v "{{UK, {A, moto*}}}")).E.records;
  check_records "prefix with no match" []
    (E.query ~config:(wc E.default) inv (Testutil.v "{Zz*}")).E.records;
  (* multiple atoms share the prefix: USA matches U* as does UK *)
  check_records "broad prefix" [ 0; 1; 3 ]
    (E.query ~config:(wc E.default) inv (Testutil.v "{U*}")).E.records;
  (* bare star matches any leaf *)
  check_records "bare star" [ 0; 1; 2; 3 ]
    (E.query ~config:(wc E.default) inv (Testutil.v "{*}")).E.records;
  (* without the flag, '*' is an ordinary atom *)
  check_records "literal star without flag" []
    (E.query inv (Testutil.v "{Lon*}")).E.records

let test_wildcard_btree_range_path () =
  Testutil.with_temp_path ".tcb" (fun path ->
      let inv =
        Containment.Collection.of_strings
          ~backend:(Containment.Collection.Btree path) Testutil.licences_strings
      in
      Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
      Alcotest.(check (list string))
        "ordered prefix scan" [ "UK"; "USA" ]
        (IF.atoms_with_prefix inv "U");
      check_records "wildcard query over btree" [ 0; 1; 3 ]
        (E.query ~config:(wc E.default) inv (Testutil.v "{U*}")).E.records)

let test_wildcard_unsupported_joins () =
  let inv = Testutil.mem_collection [ "{a}" ] in
  match
    E.query ~config:(wc { E.default with E.join = S.Superset }) inv (Testutil.v "{a*}")
  with
  | exception S.Unsupported _ -> ()
  | _ -> Alcotest.fail "wildcards must be containment-only"

let prop_wildcard_algorithms_agree =
  Testutil.qcheck_case ~count:150 ~name:"wildcards: BU = TD = naive"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_leafy_value)
    (fun (values, q) ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      (* turn some leaves into prefixes *)
      let q =
        Nested.Value.map_atoms
          (fun a -> if String.length a > 0 && a.[0] <= 'd' then String.sub a 0 1 ^ "*" else a)
          q
      in
      let inv = Containment.Collection.of_values values in
      let run algorithm =
        (E.query ~config:(wc { E.default with E.algorithm }) inv q).E.records
      in
      let bu = run E.Bottom_up in
      bu = run E.Top_down && bu = run E.Naive_scan)

let prop_wildcard_generalizes_exact =
  Testutil.qcheck_case ~count:100 ~name:"prefix query ⊇ exact query"
    (Testutil.arbitrary_collection ())
    (fun values ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let q = List.hd values in
      let q_wild = Nested.Value.map_atoms (fun a -> a ^ "*") q in
      let inv = Containment.Collection.of_values values in
      let exact = (E.query inv q).E.records in
      let wild = (E.query ~config:(wc E.default) inv q_wild).E.records in
      List.for_all (fun i -> List.mem i wild) exact)

(* A query naming an atom the collection lacks answers empty under every
   index algorithm and both containment-style joins, as the naive scan
   does, and its resolution stops at the first empty list: it looks up
   the distinct atoms up to that list, in resolution order, and none
   after it. *)
let prop_fresh_atom_answers_empty =
  Testutil.qcheck_case ~count:150 ~name:"a fresh atom answers empty, reads no list after it"
    (QCheck.triple (Testutil.arbitrary_collection ()) Testutil.arbitrary_value QCheck.small_nat)
    (fun (values, q, k) ->
      QCheck.assume (Nested.Value.is_set q);
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      (* "zfresh" joins the leaves of q's internal node k mod n, preorder *)
      let rec nodes = function
        | Nested.Value.Atom _ -> 0
        | Nested.Value.Set es -> List.fold_left (fun n e -> n + nodes e) 1 es
      in
      let target = k mod nodes q and i = ref (-1) in
      let rec insert = function
        | Nested.Value.Atom _ as v -> v
        | Nested.Value.Set es ->
          incr i;
          let here = !i = target in
          let es = List.map insert es in
          Nested.Value.set (if here then Nested.Value.atom "zfresh" :: es else es)
      in
      let q = insert q in
      (* the lookups resolution makes: distinct atoms in query order, up
         to and including the first one with an empty list *)
      let expected =
        let seen = Hashtbl.create 8 and stopped = ref false in
        let visit a =
          if not (!stopped || Hashtbl.mem seen a) then begin
            Hashtbl.add seen a ();
            if Invfile.Plist.length (IF.lookup inv a) = 0 then stopped := true
          end
        in
        let rec walk (n : Containment.Query.node) =
          Array.iter visit n.Containment.Query.leaves;
          List.iter walk n.Containment.Query.children
        in
        walk (Containment.Query.of_value q);
        Hashtbl.length seen
      in
      let lookups () = Storage.Io_stats.lookups (IF.lookup_stats inv) in
      List.for_all
        (fun join ->
          (E.query ~config:{ E.default with E.algorithm = E.Naive_scan; join } inv q).E.records
          = []
          && List.for_all
               (fun algorithm ->
                 let before = lookups () in
                 let r = E.query ~config:{ E.default with E.algorithm; join } inv q in
                 r.E.records = [] && lookups () - before = expected)
               [ E.Top_down; E.Top_down_paper; E.Bottom_up ])
        [ S.Containment; S.Equality ])

(* --- engine APIs --- *)

let test_containment_join () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let queries = [ Testutil.v "{Boston}"; Testutil.v "{Mars}"; Testutil.v "{USA}" ] in
  Alcotest.(check (list (pair int (list int))))
    "Q ⋈ S"
    [ (0, [ 1 ]); (1, []); (2, [ 1; 3 ]) ]
    (E.containment_join inv queries)

let test_witnesses () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let q = Testutil.v "{USA, {UK, {A, motorbike}}}" in
  (* Tim (root 5) and Austin (root 15) both match *)
  (match E.witnesses inv q with
  | [ (5, w); (15, _) ] ->
    check_int "three query nodes mapped" 3 (List.length w);
    Alcotest.(check (option int)) "root image" (Some 5) (List.assoc_opt "root" w);
    (* the child {UK, {A, motorbike}} maps to Tim's node 6 *)
    Alcotest.(check (option int)) "child image" (Some 6) (List.assoc_opt "root.0" w);
    Alcotest.(check (option int)) "grandchild image" (Some 7) (List.assoc_opt "root.0.0" w)
  | l -> Alcotest.failf "expected witnesses at roots 5 and 15, got %d" (List.length l));
  check_bool "no witnesses for a negative query" true (E.witnesses inv (Testutil.v "{Mars}") = [])

let prop_witnesses_are_valid_embeddings =
  Testutil.qcheck_case ~count:150 ~name:"witness images satisfy node conditions"
    (QCheck.pair (Testutil.arbitrary_collection ()) Testutil.arbitrary_leafy_value)
    (fun (values, q) ->
      let values = List.filter Nested.Value.is_set values in
      QCheck.assume (values <> []);
      let inv = Containment.Collection.of_values values in
      let ws = E.witnesses inv q in
      List.for_all
        (fun (root, w) ->
          let record = IF.record_of_root inv root in
          let tree = IF.record_tree inv record in
          (* every image's subtree must contain the corresponding query
             subtree's leaves at its own node *)
          List.for_all
            (fun (_, id) -> Nested.Tree.mem_id tree id)
            w
          && List.assoc "root" w = root)
        ws)

let () =
  Alcotest.run "extensions"
    [
      ( "ext_stack",
        [
          Alcotest.test_case "lifo with spills" `Quick test_ext_stack_lifo;
          Alcotest.test_case "interleaved vs model" `Quick test_ext_stack_interleaved;
          Alcotest.test_case "top/clear" `Quick test_ext_stack_top_and_clear;
          Alcotest.test_case "binary payloads" `Quick test_ext_stack_binary_payloads;
        ] );
      ( "plist_stream",
        [
          Alcotest.test_case "cursor" `Quick test_stream_cursor;
          Alcotest.test_case "intersection" `Quick test_stream_inter_matches_plist;
          prop_stream_inter;
          prop_stream_union;
        ] );
      ( "updater",
        [
          Alcotest.test_case "add" `Quick test_updater_add;
          Alcotest.test_case "add matches rebuild" `Quick test_updater_add_matches_rebuild;
          Alcotest.test_case "delete" `Quick test_updater_delete;
          Alcotest.test_case "delete then add" `Quick test_updater_delete_then_add;
          Alcotest.test_case "cache invalidation" `Quick test_updater_cache_invalidation;
          Alcotest.test_case "tombstones in scans (fuzz regression)" `Quick
            test_tombstones_and_scans;
          prop_updater_equivalent_to_rebuild;
        ] );
      ( "merger",
        [
          Alcotest.test_case "equals scratch build" `Quick test_merger_equals_scratch;
          Alcotest.test_case "skips tombstones" `Quick test_merger_skips_tombstones;
          Alcotest.test_case "repeated merges" `Quick test_merger_repeated;
          prop_merger_equals_scratch;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "clean collections" `Quick
            test_integrity_clean_and_after_updates;
          Alcotest.test_case "detects corruption" `Quick
            test_integrity_detects_corruption;
          Alcotest.test_case "legacy codecs clean" `Quick
            test_integrity_legacy_codecs;
          Alcotest.test_case "undecodable payloads reported" `Quick
            test_integrity_reports_undecodable;
        ] );
      ( "hash optimize",
        [ Alcotest.test_case "reclaims space" `Quick test_hash_optimize ] );
      ( "similarity",
        [
          Alcotest.test_case "thresholds" `Quick test_similarity_thresholds;
          Alcotest.test_case "nested" `Quick test_similarity_nested;
          Alcotest.test_case "validation" `Quick test_similarity_validation;
          prop_similarity_matches_oracle;
          prop_similarity_1_equals_containment_on_flat;
        ] );
      ( "ordering",
        [ prop_td_order_irrelevant_for_results ] );
      ( "minimization",
        [
          Alcotest.test_case "examples" `Quick test_minimize_examples;
          prop_minimize_preserves_answers;
          prop_minimize_idempotent_and_smaller;
        ] );
      ( "wildcards",
        [
          Alcotest.test_case "basics" `Quick test_wildcard_basic;
          Alcotest.test_case "btree range path" `Quick test_wildcard_btree_range_path;
          Alcotest.test_case "containment only" `Quick test_wildcard_unsupported_joins;
          prop_wildcard_algorithms_agree;
          prop_wildcard_generalizes_exact;
        ] );
      ( "fresh atom", [ prop_fresh_atom_answers_empty ] );
      ( "low-memory modes",
        [
          prop_cached_equals_uncached;
          Alcotest.test_case "spill_to basics" `Quick test_spill_to_equals_in_memory;
          prop_spill_to_equivalent;
        ] );
      ( "signature scan",
        [
          Alcotest.test_case "matches indexed" `Quick test_signature_scan_matches_indexed;
          Alcotest.test_case "requires filter" `Quick test_signature_scan_requires_filter;
          prop_signature_scan_equivalent;
        ] );
      ( "multicore",
        [ Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential ] );
      ( "engine apis",
        [
          Alcotest.test_case "containment_join" `Quick test_containment_join;
          Alcotest.test_case "witnesses" `Quick test_witnesses;
          prop_witnesses_are_valid_embeddings;
        ] );
    ]
