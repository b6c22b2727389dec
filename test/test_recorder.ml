(* The flight recorder in isolation: enable/disable gating, ring
   overwrite with dropped-event accounting, the name table, dump
   write/read round-trips (including corrupt-file rejection), the
   Lockdep contention hook, and the per-domain merge. The recorder's
   behaviour under server load is exercised by test_server.ml. *)

module R = Obs.Recorder

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* The ring size is fixed per ring at creation; configure before any
   emit so the main domain's ring is small enough to overflow in a
   test. Every test resets and re-enables, so order does not matter. *)
let () = R.configure ~slots:16

let fresh () =
  R.disable ();
  R.reset ();
  R.enable ()

(* --- gating --- *)

let test_disabled_records_nothing () =
  R.disable ();
  R.reset ();
  R.emit ~a16:3 R.Batch;
  R.wal_fsync ~dur_us:100;
  check_int "begin_query is 0 when disabled" 0 (R.begin_query ());
  R.end_query 0 ~results:5;
  check_int "no events recorded" 0 (List.length (R.events ()));
  let total, dropped = R.stats () in
  check_int "no events counted" 0 total;
  check_int "nothing dropped" 0 dropped

let test_enable_disable_toggle () =
  fresh ();
  R.batch ~size:1;
  R.disable ();
  R.batch ~size:2;
  R.enable ();
  R.batch ~size:3;
  let sizes =
    List.filter_map
      (fun (e : R.event) ->
        match e.R.kind with R.Batch -> Some e.R.a16 | _ -> None)
      (R.events ())
  in
  Alcotest.(check (list int)) "only enabled-window events" [ 1; 3 ] sizes

(* --- ring overwrite --- *)

let test_ring_overwrite_keeps_newest () =
  fresh ();
  for i = 0 to 39 do
    R.emit ~a16:i R.Batch
  done;
  let total, dropped = R.stats () in
  check_int "every emit counted" 40 total;
  check_int "overflow beyond 16 slots dropped" 24 dropped;
  let sizes =
    List.filter_map
      (fun (e : R.event) ->
        match e.R.kind with R.Batch -> Some e.R.a16 | _ -> None)
      (R.events ())
  in
  check_int "ring holds one ring's worth" 16 (List.length sizes);
  Alcotest.(check (list int))
    "the survivors are the newest 16, in order"
    (List.init 16 (fun i -> 24 + i))
    sizes

(* --- query / phase events --- *)

let test_query_phase_pairing () =
  fresh ();
  let qid = R.begin_query () in
  check_bool "fresh query id" true (qid <> 0);
  let code = R.intern "eval" in
  R.phase_begin code ~qid;
  R.phase_end code ~qid;
  R.end_query qid ~results:3;
  let evs = R.events () in
  Alcotest.(check (list string))
    "event sequence"
    [ "query.begin"; "phase.begin"; "phase.end"; "query.end" ]
    (List.map (fun (e : R.event) -> R.kind_name e.R.kind) evs);
  List.iter
    (fun (e : R.event) -> check_int "all carry the query id" qid e.R.a32)
    evs;
  (match List.rev evs with
  | last :: _ -> check_int "result count on query.end" 3 last.R.a16
  | [] -> Alcotest.fail "no events");
  (* the text rendering names the phase and annotates ends with a
     duration; the JSON rendering names the kind *)
  let names = [ (code, "eval") ] in
  let text = R.render ~names evs in
  check_bool "phase named in text" true
    (contains ~sub:"eval" text);
  check_bool "end annotated with elapsed time" true
    (contains ~sub:"ms)" text);
  check_bool "json kinds" true
    (contains ~sub:"\"kind\":\"query.begin\""
       (R.render_json ~names evs))

(* An end pairs with the begin of the same name code and the same query
   id. Code 1 with id 0 and code 2 with id 3 * 2^24 must not share a
   pairing key: each end below closes its own begin 20 us earlier. *)
let test_render_pairs_by_code_and_id () =
  let ev time_us kind a8 a32 =
    { R.time_us = Int64.of_int time_us; domain = 1; kind; a8; a16 = 0; a32 }
  in
  let big = 3 lsl 24 in
  let evs =
    [ ev 0 R.Phase_begin 1 0; ev 10 R.Phase_begin 2 big;
      ev 20 R.Phase_end 1 0; ev 30 R.Phase_end 2 big ]
  in
  let names = [ (1, "minimize"); (2, "eval") ] in
  let ends =
    List.filter
      (fun l -> contains ~sub:"phase.end" l)
      (String.split_on_char '\n' (R.render ~names evs))
  in
  check_int "two end lines" 2 (List.length ends);
  List.iter
    (fun l ->
      check_bool (Printf.sprintf "%S closes its own begin" l) true
        (contains ~sub:"(0.020 ms)" l))
    ends

(* --- the name table --- *)

let test_intern_stable () =
  let c = R.intern "test.recorder.alpha" in
  check_bool "non-zero code" true (c > 0 && c < 256);
  check_int "interning twice is stable" c (R.intern "test.recorder.alpha");
  (match R.name_of c with
  | Some "test.recorder.alpha" -> ()
  | Some other -> Alcotest.failf "wrong name %S" other
  | None -> Alcotest.fail "name not found");
  match R.name_of 0 with
  | None -> ()
  | Some n -> Alcotest.failf "code 0 should be unknown, got %S" n

(* --- dumps --- *)

let test_dump_round_trip () =
  fresh ();
  let qid = R.begin_query () in
  let code = R.intern "test.recorder.phase" in
  R.phase_begin code ~qid;
  R.phase_end code ~qid;
  R.wal_fsync ~dur_us:123;
  R.end_query qid ~results:7;
  let live = R.events () in
  Testutil.with_temp_path ".bin" (fun path ->
      let n = R.write_dump path in
      check_int "write_dump reports the event count" (List.length live) n;
      let names, evs = R.read_dump path in
      check_bool "interned name in the table" true
        (List.exists (fun (_, s) -> s = "test.recorder.phase") names);
      check_int "event count survives" (List.length live) (List.length evs);
      List.iter2
        (fun (a : R.event) (b : R.event) ->
          check_bool "event survives byte-identically" true (a = b))
        live evs)

let test_dump_rejects_garbage () =
  Testutil.with_temp_path ".bin" (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a flight dump";
      close_out oc;
      (match R.read_dump path with
      | exception R.Corrupt _ -> ()
      | _ -> Alcotest.fail "garbage accepted");
      (* right magic, truncated body *)
      let oc = open_out_bin path in
      output_string oc "NSCQFR1\n\x05\x00";
      close_out oc;
      match R.read_dump path with
      | exception R.Corrupt _ -> ()
      | _ -> Alcotest.fail "truncated dump accepted")

(* --- Lockdep contention hook --- *)

let test_lock_wait_hook () =
  fresh ();
  let mu = Lockdep.create "test.recorder.lock" in
  let held = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        Lockdep.lock mu;
        Atomic.set held true;
        Thread.delay 0.02;
        Lockdep.unlock mu)
      ()
  in
  while not (Atomic.get held) do
    Thread.yield ()
  done;
  (* contended acquire: try_lock fails, so the hook fires on release *)
  Lockdep.lock mu;
  Lockdep.unlock mu;
  Thread.join t;
  let waits =
    List.filter
      (fun (e : R.event) ->
        match e.R.kind with R.Lock_wait -> true | _ -> false)
      (R.events ())
  in
  check_bool "a lock-wait event was recorded" true (waits <> []);
  List.iter
    (fun (e : R.event) ->
      (match R.name_of e.R.a8 with
      | Some "test.recorder.lock" -> ()
      | Some other -> Alcotest.failf "wrong lock class %S" other
      | None -> Alcotest.fail "lock class not interned");
      check_bool "waited a positive time" true (e.R.a32 > 0))
    waits

(* --- per-domain merge --- *)

let test_per_domain_merge () =
  fresh ();
  R.batch ~size:1;
  let d =
    Domain.spawn (fun () ->
        R.batch ~size:2;
        (Domain.self () :> int))
  in
  let other = Domain.join d in
  R.batch ~size:3;
  let evs = R.events () in
  let domains =
    List.sort_uniq Int.compare
      (List.map (fun (e : R.event) -> e.R.domain) evs)
  in
  check_int "two domains contributed" 2 (List.length domains);
  check_bool "the spawned domain's ring is merged" true
    (List.mem other domains);
  (* merged timeline is time-sorted *)
  let rec sorted = function
    | (a : R.event) :: (b :: _ as rest) ->
      Int64.compare a.R.time_us b.R.time_us <= 0 && sorted rest
    | _ -> true
  in
  check_bool "timeline sorted by timestamp" true (sorted evs)

let () =
  Alcotest.run "recorder"
    [
      ( "gating",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "toggle" `Quick test_enable_disable_toggle;
        ] );
      ( "ring",
        [
          Alcotest.test_case "overwrite keeps newest" `Quick
            test_ring_overwrite_keeps_newest;
          Alcotest.test_case "per-domain merge" `Quick test_per_domain_merge;
        ] );
      ( "events",
        [
          Alcotest.test_case "query/phase pairing" `Quick
            test_query_phase_pairing;
          Alcotest.test_case "pairing keeps code and id apart" `Quick
            test_render_pairs_by_code_and_id;
          Alcotest.test_case "intern stable" `Quick test_intern_stable;
          Alcotest.test_case "lock-wait hook" `Quick test_lock_wait_hook;
        ] );
      ( "dump",
        [
          Alcotest.test_case "round-trip" `Quick test_dump_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_dump_rejects_garbage;
        ] );
    ]
