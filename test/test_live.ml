(* Live-store suite: deterministic lifecycle tests, the qcheck
   differential (random insert/delete/query/flush/compact/reopen
   interleavings against a rebuild-from-scratch oracle), and the crash
   sweep — kill the store at every kv write boundary and at every named
   flush/compaction step, reopen, and require the recovered store to be
   byte-equivalent to a rebuild over exactly the acknowledged writes
   (the one in-flight write may also survive: durable-but-unacknowledged
   is allowed, lost-but-acknowledged is not). *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module S = Containment.Semantics
module L = Live.Live_store
module V = Nested.Value

let v = Nested.Syntax.of_string
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ids = Alcotest.(check (list int))

let with_temp_dir f =
  let dir = Filename.temp_file "nscq_live_" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* --- the rebuild oracle ---

   The spec of every live query: build one fresh store over the live
   records (ascending gid order), query it, translate local ids back
   through the gid list. *)

let live_pairs store = List.rev (L.fold_live store ~init:[] ~f:(fun acc gid value -> (gid, value) :: acc))

let oracle_query ?(config = E.default) store q =
  let pairs = live_pairs store in
  let inv =
    let b = Invfile.Builder.create (Storage.Mem_store.create ()) in
    List.iter (fun (_, value) -> ignore (Invfile.Builder.add_value b value)) pairs;
    Invfile.Builder.finish b
  in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  let gids = Array.of_list (List.map fst pairs) in
  List.map (fun local -> gids.(local)) (E.query ~config inv q).E.records

let oracle_join ?(config = Join.Engine.default) store values =
  let pairs = live_pairs store in
  let inv =
    let b = Invfile.Builder.create (Storage.Mem_store.create ()) in
    List.iter (fun (_, value) -> ignore (Invfile.Builder.add_value b value)) pairs;
    Invfile.Builder.finish b
  in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  let gids = Array.of_list (List.map fst pairs) in
  List.map
    (fun (o, local) -> (o, gids.(local)))
    (Join.Engine.join ~config inv values).Join.Engine.pairs

let configs =
  [
    ("hom", E.default);
    ("iso", { E.default with E.embedding = S.Iso });
    ("homeo", { E.default with E.embedding = S.Homeo });
    ("superset", { E.default with E.join = S.Superset });
  ]

let probes =
  List.map v
    [
      "{UK, {A, motorbike}}";
      "{USA}";
      "{car}";
      "{nothere}";
      "{B, car}";
      "{a, {b}}";
      "{}";
    ]

let assert_equiv ?(ctx = "") store =
  List.iter
    (fun q ->
      List.iter
        (fun (cname, config) ->
          check_ids
            (Printf.sprintf "%s%s %s" ctx cname (V.to_string q))
            (oracle_query ~config store q)
            (L.query ~config store q))
        configs)
    probes

let licences = List.map v Testutil.licences_strings

(* manual control everywhere by default: no auto flush, no compactor *)
let manual = { L.default with L.flush_records = 0; max_segments = 0 }

(* --- basic lifecycle --- *)

let test_basic () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  let gids = List.map (L.insert store) licences in
  check_ids "gids are 0.." [ 0; 1; 2; 3 ] gids;
  check_int "live" 4 (L.live_records store);
  check_int "memtable holds all" 4 (L.memtable_records store);
  assert_equiv ~ctx:"memtable: " store;
  (* seal *)
  check_int "flush seals all" 4 (L.flush store);
  check_int "one segment" 1 (L.segment_count store);
  check_int "memtable empty" 0 (L.memtable_records store);
  assert_equiv ~ctx:"sealed: " store;
  (* mixed memtable + segment *)
  let gid_berlin = L.insert store (v "{Berlin, DE, {DE, {A, car}}}") in
  check_int "ids keep climbing" 4 gid_berlin;
  assert_equiv ~ctx:"mixed: " store;
  (* sealed delete -> tombstone; memtable delete -> in place *)
  check_bool "delete sealed" true (L.delete store 1);
  check_int "tombstone recorded" 1 (L.tombstone_count store);
  check_bool "delete memtable" true (L.delete store gid_berlin);
  check_int "no memtable tombstone" 1 (L.tombstone_count store);
  check_bool "double delete" false (L.delete store 1);
  check_bool "unknown id" false (L.delete store 99);
  check_int "live after deletes" 3 (L.live_records store);
  assert_equiv ~ctx:"deleted: " store;
  check_bool "record_value dead" true (L.record_value store 1 = None);
  check_bool "record_value live" true (L.record_value store 0 = Some (List.hd licences))

let test_flush_and_compact () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iter
    (fun value ->
      ignore (L.insert store value);
      ignore (L.flush store))
    licences;
  check_int "one segment per flush" 4 (L.segment_count store);
  check_int "empty flush seals nothing" 0 (L.flush store);
  check_bool "delete sealed" true (L.delete store 2);
  assert_equiv ~ctx:"4 segments: " store;
  (* one step merges exactly two *)
  check_bool "compact pair" true (L.compact store = Some 2);
  check_int "segments after pair merge" 3 (L.segment_count store);
  assert_equiv ~ctx:"3 segments: " store;
  (* full merge purges the tombstone *)
  check_bool "compact all" true (L.compact ~all:true store = Some 3);
  check_int "single segment" 1 (L.segment_count store);
  check_int "tombstones purged" 0 (L.tombstone_count store);
  check_int "live unchanged" 3 (L.live_records store);
  assert_equiv ~ctx:"compacted: " store;
  check_bool "nothing left to compact" true (L.compact store = None);
  (* deleted gid stays dead after purge, new ids never reuse it *)
  check_bool "purged id is gone" true (L.record_value store 2 = None);
  check_int "ids never reused" 4 (L.insert store (v "{x}"))

let test_reopen_replays_wal () =
  with_temp_dir @@ fun dir ->
  let expected =
    let store = L.create ~config:manual dir in
    List.iter (fun value -> ignore (L.insert store value)) licences;
    ignore (L.flush store);
    ignore (L.insert store (v "{Kyoto, JP, {JP, {C, car}}}"));
    ignore (L.delete store 1);
    ignore (L.delete store 4);
    let expected = live_pairs store in
    (* no flush: the memtable insert and both deletes live only in the WAL *)
    L.close store;
    expected
  in
  let store = L.open_store ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  check_bool "replay restores exactly the acknowledged state" true
    (live_pairs store = expected);
  check_int "next_id beyond every replayed id" 5 (L.next_id store);
  assert_equiv ~ctx:"reopened: " store;
  (* deletes of sealed records must survive as tombstones *)
  check_int "tombstone replayed" 1 (L.tombstone_count store);
  check_bool "memtable delete replayed" true (L.record_value store 4 = None)

let test_auto_flush () =
  with_temp_dir @@ fun dir ->
  let config = { manual with L.flush_records = 3 } in
  let store = L.create ~config dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iteri
    (fun i value ->
      ignore (L.insert store value);
      if i < 2 then check_int "not yet" 0 (L.segment_count store))
    licences;
  check_int "sealed at the threshold" 1 (L.segment_count store);
  check_int "fourth insert back in the memtable" 1 (L.memtable_records store);
  assert_equiv ~ctx:"auto-flushed: " store

let test_auto_compact () =
  with_temp_dir @@ fun dir ->
  let config =
    { L.flush_records = 2; max_segments = 2; auto_compact = true;
      wal_sync = false; wrap = (fun _ kv -> kv) }
  in
  let store = L.create ~config dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  for i = 0 to 19 do
    ignore (L.insert store (v (Printf.sprintf "{r%d, a, {b, c%d}}" i (i mod 3))))
  done;
  (* the compactor runs on its own domain; give it a bounded grace period *)
  let deadline = Unix.gettimeofday () +. 10. in
  while
    L.segment_count store > 2 && Unix.gettimeofday () < deadline
  do
    Thread.yield ();
    Unix.sleepf 0.01 [@lint.allow io]
  done;
  check_bool "background compaction caught up"
    true
    (L.segment_count store <= 2);
  check_int "no records lost" 20 (L.live_records store);
  let q = v "{a, {b, c1}}" in
  check_ids "query agrees after background merges" (oracle_query store q)
    (L.query store q)

let test_join_matches_naive () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iter (fun value -> ignore (L.insert store value)) licences;
  ignore (L.flush store);
  List.iter
    (fun s -> ignore (L.insert store (v s)))
    [ "{UK, {A, motorbike}, extra}"; "{Paris, FR}" ];
  ignore (L.delete store 1);
  let outers =
    List.map v [ "{UK, {A, motorbike}}"; "{car}"; "{nothere}"; "{Paris}" ]
  in
  let pp ps = String.concat " " (List.map (fun (o, g) -> Printf.sprintf "(%d,%d)" o g) ps) in
  Alcotest.(check string) "join equals rebuild-oracle join"
    (pp (oracle_join store outers)) (pp (L.join store outers))

(* A block of 210 probes over two sealed segments, a tombstone in the
   first and a non-empty memtable: every answer equals the rebuild
   oracle's, in input order. *)
let test_query_batch () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  let extra = List.map v [ "{Paris, FR, {car}}"; "{UK, {B, car}}"; "{a, {b}}" ] in
  List.iter (fun value -> ignore (L.insert store value)) licences;
  ignore (L.flush store);
  List.iter (fun value -> ignore (L.insert store value)) extra;
  ignore (L.flush store);
  ignore (L.insert store (v "{Berlin, DE}"));
  ignore (L.delete store 2);
  check_int "two sealed segments" 2 (L.segment_count store);
  check_int "one tombstone" 1 (L.tombstone_count store);
  let st = Random.State.make [| 5 |] in
  let records = Array.of_list (licences @ extra) in
  let fixed = Array.of_list probes in
  let batch =
    List.init 210 (fun i ->
        if i mod 2 = 0 then fixed.(i / 2 mod Array.length fixed)
        else Testutil.shrink_to_subquery st records.(i mod Array.length records))
  in
  let got = L.query_batch store batch in
  check_int "one answer per probe" (List.length batch) (List.length got);
  List.iter2
    (fun q ids -> check_ids (V.to_string q) (oracle_query store q) ids)
    batch got

let test_rejections () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  Alcotest.check_raises "atom insert rejected"
    (Invalid_argument
       "Live_store.insert: value must be a set, not a bare atom") (fun () ->
      ignore (L.insert store (V.atom "a")));
  (let scratch =
     let b = Invfile.Builder.create (Storage.Mem_store.create ()) in
     ignore (Invfile.Builder.add_value b (v "{a}"));
     Invfile.Builder.finish b
   in
   let fi = Containment.Filter_index.build scratch in
   IF.close scratch;
   try
     ignore
       (L.query
          ~config:{ E.default with E.filter_index = Some fi }
          store (v "{a}"));
     Alcotest.fail "filter_index config must be rejected"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "create refuses an existing live dir"
    (Invalid_argument
       (Printf.sprintf "Live_store.create: %s is already a live store" dir))
    (fun () -> ignore (L.create dir))

let test_verify_healthy () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iter (fun value -> ignore (L.insert store value)) licences;
  ignore (L.flush store);
  ignore (L.insert store (v "{x, y}"));
  ignore (L.delete store 0);
  check_bool "verify finds nothing" true (L.verify store = []);
  check_bool "repair has nothing to do" true (L.repair store = []);
  check_bool "is_live_dir" true (L.is_live_dir dir);
  check_bool "not a live dir" false (L.is_live_dir (Filename.concat dir "nope"))

(* One damaged list in a sealed segment and one in the memtable: repair
   rebuilds each of the two parts once and names both, and the store is
   then consistent and answers as the rebuild oracle does. *)
let test_repair_damaged_parts () =
  with_temp_dir @@ fun dir ->
  let kvs = Hashtbl.create 4 in
  let wrap path kv =
    Hashtbl.replace kvs (Filename.basename path) kv;
    kv
  in
  let store = L.create ~config:{ manual with L.wrap } dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iter (fun value -> ignore (L.insert store value)) licences;
  ignore (L.flush store);
  List.iter (fun value -> ignore (L.insert store value)) licences;
  (* drop the first posting of UK's list *)
  let damage (kv : Storage.Kv.t) =
    let key = IF.atom_key "UK" in
    let l = Invfile.Plist.of_bytes (Option.get (kv.Storage.Kv.get key)) in
    kv.Storage.Kv.put key (Invfile.Plist.to_bytes (Invfile.Plist.filter (fun i -> i > 0) l))
  in
  let segment =
    Hashtbl.fold
      (fun file kv acc -> if String.starts_with ~prefix:"seg-" file then kv :: acc else acc)
      kvs []
  in
  check_int "one sealed segment" 1 (List.length segment);
  damage (List.hd segment);
  damage (IF.store (L.internal_memtable store));
  let named prefix = List.exists (String.starts_with ~prefix) in
  let problems = List.map fst (L.verify store) in
  check_bool "verify names the segment" true (named "segment " problems);
  check_bool "verify names the memtable" true (named "memtable" problems);
  let actions = L.repair store in
  check_int "one action per damaged part" 2 (List.length actions);
  check_bool "repair names the segment" true (named "segment " actions);
  check_bool "repair names the memtable" true (named "memtable" actions);
  check_bool "verify clean after repair" true (L.verify store = []);
  assert_equiv ~ctx:"repaired: " store

(* --- qcheck differential: random interleavings vs the rebuild oracle --- *)

type op = Insert of V.t | Delete of int | Flush | Compact | Reopen

let gen_op st =
  let open QCheck.Gen in
  match int_range 0 9 st with
  | 0 | 1 | 2 | 3 | 4 -> Insert (Testutil.gen_set ~max_depth:3 ~max_width:4 st)
  | 5 | 6 -> Delete (int_range 0 40 st)
  | 7 -> Flush
  | 8 -> Compact
  | _ -> Reopen

let pp_op = function
  | Insert value -> "insert " ^ V.to_string value
  | Delete k -> Printf.sprintf "delete #%d" k
  | Flush -> "flush"
  | Compact -> "compact"
  | Reopen -> "reopen"

let arbitrary_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 5 40) gen_op)

(* The model: the assoc list of (gid, value) the store must expose.
   Delete k targets the k-th live record (mod size), exercising memtable,
   sealed, and already-deleted targets alike. *)
let apply_model model op =
  match op with
  | Delete k when model <> [] ->
    let n = List.length model in
    let gid, _ = List.nth model (k mod n) in
    List.filter (fun (g, _) -> g <> gid) model
  | _ -> model

let run_script dir ops =
  let config = { manual with L.flush_records = 6; wal_sync = false } in
  let store = ref (L.create ~config dir) in
  Fun.protect ~finally:(fun () -> L.close !store) @@ fun () ->
  let model = ref [] in
  List.iter
    (fun op ->
      (match op with
      | Insert value ->
        let gid = L.insert !store value in
        model := !model @ [ (gid, value) ]
      | Delete k ->
        (match !model with
        | [] -> ignore (L.delete !store 0)
        | l ->
          let gid, _ = List.nth l (k mod List.length l) in
          ignore (L.delete !store gid))
      | Flush -> ignore (L.flush !store)
      | Compact -> ignore (L.compact !store)
      | Reopen ->
        L.close !store;
        store := L.open_store ~config dir);
      model := apply_model !model op)
    ops;
  (* state equality: exactly the model's records, in gid order *)
  if live_pairs !store <> !model then
    QCheck.Test.fail_reportf "live records diverge from the model";
  (* query equality, all semantics, plus a couple of data-derived probes *)
  let data_probes =
    match !model with
    | (_, value) :: _ -> [ value ]
    | [] -> []
  in
  List.iter
    (fun q ->
      List.iter
        (fun (cname, config) ->
          let want = oracle_query ~config !store q in
          let got = L.query ~config !store q in
          if want <> got then
            QCheck.Test.fail_reportf "%s %s: oracle %s, live %s" cname
              (V.to_string q)
              (String.concat "," (List.map string_of_int want))
              (String.concat "," (List.map string_of_int got)))
        configs)
    (probes @ data_probes);
  check_bool "verify clean after script" true (L.verify !store = []);
  true

let test_differential =
  Testutil.qcheck_case ~count:60 ~name:"random interleavings match a rebuild"
    arbitrary_script
    (fun ops -> with_temp_dir @@ fun dir -> run_script dir ops)

(* --- crash sweep ---

   A scripted workload (inserts, deletes, auto-flushes, one compaction)
   runs behind a wrap hook that counts every mutating kv op across every
   handle the store opens — WAL, segment builds, compaction products —
   and can kill the store at any one of them (optionally tearing the
   final WAL record, which carries its own checksum precisely for this).
   After each crash: reopen, integrity-check, and hold the survivors to
   the acknowledged-ops model. *)

let crash_script =
  List.concat
    (List.mapi
       (fun i s -> [ `Insert s; `Insert (Printf.sprintf "{extra%d, a}" i) ])
       Testutil.licences_strings)
  @ [ `Delete 0; `Delete 5; `Compact; `Insert "{tail, z}"; `Delete 9 ]

type counter_wrap = {
  wrap : string -> Storage.Kv.t -> Storage.Kv.t;
  ops : int ref;
}

(* [limit = max_int] counts; otherwise the [limit]-th mutating op (and
   every later one) raises Fault.Crashed. In [torn] mode the crashing
   put of a WAL record reaches the backend with half its value first —
   the op-level CRC must catch it. *)
let make_crashy ?(torn = false) ~limit () =
  let ops = ref 0 in
  let dead = ref false in
  let wrap path (kv : Storage.Kv.t) =
    let bump ~tear =
      if !dead then raise (Storage.Fault.Crashed "sweep");
      incr ops;
      if !ops >= limit then begin
        dead := true;
        (match tear with Some f -> f () | None -> ());
        raise (Storage.Fault.Crashed "sweep")
      end
    in
    let is_wal = String.length (Filename.basename path) >= 4
                 && String.sub (Filename.basename path) 0 4 = "wal-" in
    {
      kv with
      Storage.Kv.put =
        (fun k value ->
          let tear =
            if torn && is_wal then
              Some (fun () -> kv.Storage.Kv.put k
                      (String.sub value 0 (String.length value / 2)))
            else None
          in
          bump ~tear;
          kv.Storage.Kv.put k value);
      delete = (fun k -> bump ~tear:None; kv.Storage.Kv.delete k);
      sync = (fun () -> bump ~tear:None; kv.Storage.Kv.sync ());
    }
  in
  { wrap; ops }

let crash_config wrap =
  { L.flush_records = 3; max_segments = 0; auto_compact = false;
    wal_sync = true; wrap }

(* Applies the script; returns the model states before and after the op
   that crashed (equal when nothing crashed). *)
let apply_crash_script store =
  let model = ref [] in
  let crashed_between = ref None in
  (try
     List.iter
       (fun op ->
         let before = !model in
         let after =
           match op with
           | `Insert s ->
             let value = v s in
             let gid = L.insert store value in
             before @ [ (gid, value) ]
           | `Delete gid ->
             ignore (L.delete store gid);
             List.filter (fun (g, _) -> g <> gid) before
           | `Compact ->
             ignore (L.compact ~all:true store);
             before
         in
         (* an op that returned is acknowledged *)
         model := after)
       crash_script
   with Storage.Fault.Crashed _ ->
     (* the in-flight op may or may not survive: recompute its would-be
        effect from the last acknowledged state *)
     let before = !model in
     let next_gid = match List.rev before with [] -> 0 | (g, _) :: _ -> g + 1 in
     crashed_between := Some (before, next_gid));
  (!model, !crashed_between)

let check_recovered ~ctx dir (acknowledged, crashed_between) =
  let store = L.open_store ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  (match L.verify store with
  | [] -> ()
  | (what, detail) :: _ ->
    Alcotest.failf "%s: recovered store fails verify: %s: %s" ctx what detail);
  let survivors = live_pairs store in
  let acceptable =
    survivors = acknowledged
    ||
    match crashed_between with
    | None -> false
    | Some (before, next_gid) ->
      (* in-flight insert made it down: acknowledged state plus one
         record with the next gid. In-flight delete made it down: some
         acknowledged record missing. Both are (before op, after op)
         states; anything else is corruption. *)
      survivors = before
      || (match List.rev survivors with
         | (g, _) :: _ when g = next_gid ->
           List.filter (fun (gid, _) -> gid <> g) survivors = before
         | _ -> false)
      || List.length survivors = List.length before - 1
         && List.for_all (fun r -> List.mem r before [@lint.allow polycmp]) survivors
  in
  if not acceptable then
    Alcotest.failf "%s: survivors match neither side of the crash boundary" ctx;
  (* and the survivors answer queries exactly like a rebuild *)
  assert_equiv ~ctx:(ctx ^ ": ") store

let test_crash_sweep_kv ~torn () =
  (* pass 1: count the write boundaries *)
  let total =
    with_temp_dir @@ fun dir ->
    let c = make_crashy ~limit:max_int () in
    let store = L.create ~config:(crash_config c.wrap) dir in
    let model, _ = apply_crash_script store in
    check_bool "fault-free run keeps every record" true
      (live_pairs store = model);
    L.close store;
    !(c.ops)
  in
  check_bool "workload produces write boundaries" true (total > 20);
  (* pass 2: crash at each boundary in turn *)
  for boundary = 1 to total do
    with_temp_dir @@ fun dir ->
    let c = make_crashy ~torn ~limit:boundary () in
    let outcome =
      let store = L.create ~config:(crash_config c.wrap) dir in
      let outcome = apply_crash_script store in
      (try L.close store with Storage.Fault.Crashed _ -> ());
      outcome
    in
    check_recovered ~ctx:(Printf.sprintf "boundary %d" boundary) dir outcome
  done

(* Crash exactly at the named steps inside flush and compaction — the
   points bracketing the manifest swap. *)
let test_crash_at_steps () =
  let steps =
    [
      "flush:segment-built"; "flush:wal-rotated"; "flush:manifest-swapped";
      "compact:dst-built"; "compact:manifest-swapped";
    ]
  in
  List.iter
    (fun step ->
      with_temp_dir @@ fun dir ->
      let outcome =
        let store = L.create ~config:(crash_config (fun _ kv -> kv)) dir in
        Live.Live_store.set_step_hook store (fun s ->
            if String.equal s step then
              raise (Storage.Fault.Crashed ("step " ^ step)));
        let outcome = apply_crash_script store in
        (try L.close store with Storage.Fault.Crashed _ -> ());
        outcome
      in
      let acknowledged, crashed = outcome in
      check_bool (step ^ " fired") true (crashed <> None || acknowledged = []);
      check_recovered ~ctx:step dir outcome)
    steps

(* A flush or compaction interrupted before its manifest swap leaves
   orphan files; reopening must clean them and reuse the sequence
   numbers without a clash. *)
let test_orphan_cleanup () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:manual dir in
  List.iter (fun value -> ignore (L.insert store value)) licences;
  L.set_step_hook store (fun s ->
      if String.equal s "flush:wal-rotated" then
        raise (Storage.Fault.Crashed "orphan test"));
  (try ignore (L.flush store) with Storage.Fault.Crashed _ -> ());
  (try L.close store with Storage.Fault.Crashed _ -> ());
  (* the sealed-but-uncommitted segment and the rotated WAL are on disk *)
  let files () =
    List.sort String.compare (Array.to_list (Sys.readdir dir))
  in
  check_bool "orphans present before reopen" true
    (List.length (files ()) > 2);
  let store = L.open_store ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  check_ids "orphan segment not resurrected: records replay from the WAL"
    [ 0; 1; 2; 3 ]
    (List.map fst (live_pairs store));
  check_int "no sealed segments" 0 (L.segment_count store);
  ignore (L.flush store);
  assert_equiv ~ctx:"after orphan cleanup: " store

let () =
  Alcotest.run "live"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "basic insert/delete/query" `Quick test_basic;
          Alcotest.test_case "flush and compact" `Quick test_flush_and_compact;
          Alcotest.test_case "reopen replays the WAL" `Quick
            test_reopen_replays_wal;
          Alcotest.test_case "auto flush" `Quick test_auto_flush;
          Alcotest.test_case "background compaction" `Slow test_auto_compact;
          Alcotest.test_case "join matches the rebuild oracle" `Quick
            test_join_matches_naive;
          Alcotest.test_case "query_batch" `Quick test_query_batch;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "verify/repair on a healthy store" `Quick
            test_verify_healthy;
          Alcotest.test_case "repair a damaged segment and memtable" `Quick
            test_repair_damaged_parts;
        ] );
      ("differential", [ test_differential ]);
      ( "crash",
        [
          Alcotest.test_case "sweep every kv write boundary" `Slow
            (test_crash_sweep_kv ~torn:false);
          Alcotest.test_case "sweep with torn WAL records" `Slow
            (test_crash_sweep_kv ~torn:true);
          Alcotest.test_case "crash at every named step" `Quick
            test_crash_at_steps;
          Alcotest.test_case "orphan cleanup on reopen" `Quick
            test_orphan_cleanup;
        ] );
    ]
