(* The server end to end: results over the wire must match the in-process
   engine (including under concurrent clients), backpressure must shed
   load with Overloaded rather than queue unboundedly, and a SIGINT'd
   server must leave the store clean. *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module V = Nested.Value
module S = Server.Service
module C = Server.Client
module W = Server.Wire

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_s haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- a deterministic collection and query set (as test_parallel) --- *)

let collection_strings =
  let st = Random.State.make [| 23 |] in
  let gen _ =
    V.to_string (Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st)
  in
  Testutil.licences_strings @ List.init 40 gen

let queries =
  let st = Random.State.make [| 5 |] in
  let all = List.map Testutil.v collection_strings in
  let subs =
    List.filteri (fun i _ -> i mod 4 = 0) all
    |> List.map (fun r ->
           let q = Testutil.shrink_to_subquery st r in
           if V.is_set q && V.elements q <> [] then q else r)
  in
  let probes =
    List.init 6 (fun _ -> Testutil.gen_leafy_set ~max_depth:2 ~max_width:3 st)
  in
  subs @ probes

let build path =
  let store = Storage.Log_store.create path in
  let b = Invfile.Builder.create store in
  List.iter (fun s -> ignore (Invfile.Builder.add_string b s)) collection_strings;
  IF.close (Invfile.Builder.finish b)

let open_handle path () = IF.open_store (Storage.Log_store.open_existing path)

(* What the server must answer for each query: the in-process engine's
   record ids, space-separated — the wire payload format. *)
let expected_payloads path =
  let inv = open_handle path () in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  List.map
    (fun q ->
      ( V.to_string q,
        String.concat " " (List.map string_of_int (E.query inv q).E.records) ))
    queries

let with_server ?paused ~domains ?(queue_cap = 16) ?(max_batch = 4)
    ?(slow_query_ms = 0.) path f =
  let cfg =
    { S.default_config with S.port = 0; domains; queue_cap; max_batch;
      stats_interval_s = 0.; slow_query_ms }
  in
  let srv = S.start ?paused cfg ~open_handle:(open_handle path) in
  Fun.protect ~finally:(fun () -> S.stop srv) (fun () -> f srv)

let rec wait_until ?(timeout = 5.) cond =
  if cond () then true
  else if timeout <= 0. then false
  else begin
    Thread.delay 0.02;
    wait_until ~timeout:(timeout -. 0.02) cond
  end

(* --- batched execution must equal one-at-a-time execution --- *)

let test_query_batch_matches_singles () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let inv = open_handle path () in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  let singles = List.map (fun q -> (E.query inv q).E.records) queries in
  let batched = List.map (fun r -> r.E.records) (E.query_batch inv queries) in
  check_int "one result per query" (List.length singles) (List.length batched);
  List.iteri
    (fun i (s, b) ->
      Alcotest.(check (list int)) (Printf.sprintf "query %d records" i) s b)
    (List.combine singles batched)

(* --- smoke: one client, every verb, clean shutdown --- *)

let test_smoke () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let expected = expected_payloads path in
  with_server ~domains:2 path @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* literal queries match the in-process engine *)
  List.iter
    (fun (text, want) ->
      match C.query c text with
      | Ok got -> Alcotest.(check string) ("query " ^ text) want got
      | Error (code, msg) ->
        Alcotest.failf "query %s refused: %a: %s" text W.pp_error_code code msg)
    expected;
  (* an NSCQL statement over the wire *)
  (match C.query c "COUNT CONTAINS {{UK, {A, motorbike}}}" with
  | Ok out -> check_bool "count rendered" true (contains_s out "3")
  | Error (_, msg) -> Alcotest.failf "NSCQL refused: %s" msg);
  (* the server is read-only *)
  (match C.query c "INSERT {a, {b}}" with
  | Error (W.Bad_request, msg) ->
    check_bool "read-only message" true (contains_s msg "read-only")
  | Ok _ -> Alcotest.fail "INSERT accepted by a read-only server"
  | Error (code, _) ->
    Alcotest.failf "INSERT refused with %a, want bad-request" W.pp_error_code
      code);
  (* unparsable text is a Bad_request, not a dropped connection *)
  (match C.query c "{unclosed" with
  | Error (W.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error (code, _) ->
    Alcotest.failf "garbage refused with %a" W.pp_error_code code);
  (* the stats verb serves the counters *)
  (match C.stats c with
  | Ok out ->
    check_bool "stats mention accepted" true (contains_s out "accepted");
    check_bool "stats mention latency" true (contains_s out "latency_ms")
  | Error (_, msg) -> Alcotest.failf "stats refused: %s" msg);
  check_bool "server completed the workload" true
    (Server.Server_stats.completed (S.stats srv) >= List.length expected)

(* --- ≥ 4 concurrent clients, results equal the engine's --- *)

let test_concurrent_clients () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let expected = expected_payloads path in
  with_server ~domains:3 ~queue_cap:64 path @@ fun srv ->
  let clients = 5 in
  let failures = Atomic.make 0 in
  let fail _ = Atomic.incr failures in
  let threads =
    List.init clients (fun _ ->
        Thread.create
          (fun () ->
            match C.connect ~port:(S.port srv) () with
            | exception _ -> fail ()
            | c ->
              Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
              List.iter
                (fun (text, want) ->
                  match C.query c text with
                  | Ok got when got = want -> ()
                  | Ok _ | Error _ | (exception _) -> fail ())
                expected)
          ())
  in
  List.iter Thread.join threads;
  check_int "no mismatching or failed replies" 0 (Atomic.get failures);
  let stats = S.stats srv in
  check_int "every request answered"
    (Server.Server_stats.accepted stats)
    (Server.Server_stats.completed stats);
  check_bool "work was batched" true (Server.Server_stats.batches stats > 0)

(* --- backpressure: a full queue sheds with Overloaded --- *)

let test_overload_and_resume () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let expected = expected_payloads path in
  let text, want = List.hd expected in
  (* one paused worker, room for two requests: of six concurrent clients
     exactly two are admitted (and parked) and four are shed *)
  with_server ~paused:true ~domains:1 ~queue_cap:2 path @@ fun srv ->
  let results = Array.make 6 None in
  let threads =
    List.init 6 (fun i ->
        Thread.create
          (fun () ->
            let c = C.connect ~port:(S.port srv) () in
            Fun.protect
              ~finally:(fun () -> C.close c)
              (fun () -> results.(i) <- Some (C.query c text)))
          ())
  in
  check_bool "four requests shed" true
    (wait_until (fun () -> Server.Server_stats.overloaded (S.stats srv) = 4));
  check_int "two requests parked in the queue" 2 (S.queue_depth srv);
  S.resume srv;
  List.iter Thread.join threads;
  let ok, refused =
    Array.fold_left
      (fun (ok, refused) r ->
        match r with
        | Some (Ok got) ->
          Alcotest.(check string) "admitted query answered correctly" want got;
          (ok + 1, refused)
        | Some (Error (W.Overloaded, _)) -> (ok, refused + 1)
        | Some (Error (code, msg)) ->
          Alcotest.failf "unexpected refusal %a: %s" W.pp_error_code code msg
        | None -> Alcotest.fail "a client thread did not finish")
      (0, 0) results
  in
  check_int "admitted" 2 ok;
  check_int "shed with Overloaded" 4 refused

(* --- a queued request whose deadline passes is answered, not run --- *)

let test_deadline_expires_in_queue () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let text, _ = List.hd (expected_payloads path) in
  with_server ~paused:true ~domains:1 path @@ fun srv ->
  let resumer =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        S.resume srv)
      ()
  in
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect
    ~finally:(fun () ->
      C.close c;
      Thread.join resumer)
    (fun () ->
      match C.query c ~deadline_ms:20 text with
      | Error (W.Deadline_exceeded, _) -> ()
      | Ok _ -> Alcotest.fail "ran despite an expired deadline"
      | Error (code, msg) ->
        Alcotest.failf "unexpected refusal %a: %s" W.pp_error_code code msg)

(* --- a drained dispatcher refuses instead of queueing --- *)

let test_drained_dispatch_refuses () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let stats = Server.Server_stats.create () in
  let d =
    Server.Dispatch.create ~domains:1 ~queue_cap:4 ~max_batch:4
      ~open_backend:
        (Server.Dispatch.store_backend ~cache_budget:16
           ~open_handle:(open_handle path))
      ~stats ()
  in
  Server.Dispatch.drain d;
  match
    Server.Dispatch.submit d
      ~request:(Server.Batcher.parse "{a}" |> Result.get_ok)
      ~reply:(fun _ -> Alcotest.fail "reply after drain")
      ()
  with
  | `Shutting_down -> ()
  | `Accepted | `Overloaded -> Alcotest.fail "drained dispatcher took work"

(* --- SIGINT during load leaves a clean store --- *)

let nscq =
  let candidates =
    (match Sys.getenv_opt "NSCQ_BIN" with Some p -> [ p ] | None -> [])
    @ [ "../bin/nscq.exe"; "_build/default/bin/nscq.exe"; "bin/nscq.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/nscq.exe"

let wait_exit pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Thread.delay 0.05;
        go ()
      end
    | _, status -> Some status
  in
  go ()

let test_sigint_leaves_clean_store () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process nscq
      [| nscq; "serve"; "-s"; path; "--port"; "0";
         "--domains"; "2"; "--stats-interval"; "0" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      (try close_in ic with Sys_error _ -> ());
      (* belt and braces: never leave the child behind *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error _ -> ())
    (fun () ->
      (* parse the ephemeral port from the announce line *)
      let marker = "listening on 127.0.0.1:" in
      let rec find_port tries =
        if tries = 0 then Alcotest.fail "server never announced its port";
        match input_line ic with
        | exception End_of_file -> Alcotest.fail "server exited before listening"
        | line ->
          if contains_s line marker then begin
            let rec find_at i =
              if String.sub line i (String.length marker) = marker then
                i + String.length marker
              else find_at (i + 1)
            in
            let start = find_at 0 in
            let stop = ref start in
            while
              !stop < String.length line
              && line.[!stop] >= '0'
              && line.[!stop] <= '9'
            do
              incr stop
            done;
            int_of_string (String.sub line start (!stop - start))
          end
          else find_port (tries - 1)
      in
      let port = find_port 10 in
      (* put it under load, then interrupt it mid-conversation *)
      let c = C.connect ~port () in
      List.iter
        (fun q -> ignore (C.query c (V.to_string q)))
        (List.filteri (fun i _ -> i < 5) queries);
      Unix.kill pid Sys.sigint;
      (match wait_exit pid ~timeout_s:10. with
      | Some (Unix.WEXITED 0) -> ()
      | Some (Unix.WEXITED n) -> Alcotest.failf "server exited %d" n
      | Some _ -> Alcotest.fail "server killed by signal"
      | None -> Alcotest.fail "server did not exit within 10s of SIGINT");
      (try C.close c with _ -> ());
      (* the store must reopen with nothing to recover *)
      let kv = Storage.Log_store.open_existing path in
      check_bool "no pending journal" false (Invfile.Journal.pending kv);
      check_int "no recovery replay" 0
        (Storage.Io_stats.recoveries kv.Storage.Kv.stats);
      let inv = IF.open_store kv in
      Fun.protect
        ~finally:(fun () -> IF.close inv)
        (fun () ->
          check_int "integrity clean" 0 (List.length (Invfile.Integrity.check inv))))

(* --- observability over the wire --- *)

(* The Trace verb must answer the same record ids as Query, plus a span
   tree that parses and carries the query's phases; the caller's trace id
   must come back on the tree so distributed spans correlate. *)
let test_trace_verb () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let expected = expected_payloads path in
  with_server ~domains:2 path @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  List.iteri
    (fun i (text, want) ->
      if i < 8 then
        match C.trace c ~trace_id:(0x1000 + i) text with
        | Error (code, msg) ->
          Alcotest.failf "trace %s refused: %a: %s" text W.pp_error_code code
            msg
        | Ok payload -> (
          let result, spans = W.split_traced payload in
          Alcotest.(check string) ("trace ids for " ^ text) want result;
          match Obs.Trace.of_wire spans with
          | None -> Alcotest.failf "unparsable span tree:\n%s" spans
          | Some (id, root) ->
            check_int "caller's trace id echoed" (0x1000 + i) id;
            check_bool "eval phase recorded" true
              (List.exists
                 (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = "eval")
                 root.Obs.Trace.children)))
    expected;
  (* NSCQL under the Trace verb is refused, not crashed *)
  match C.trace c "COUNT CONTAINS {a}" with
  | Error (W.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "NSCQL accepted under Trace"
  | Error (code, _) ->
    Alcotest.failf "NSCQL under Trace refused with %a" W.pp_error_code code

let test_stats_carries_registry () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  with_server ~domains:1 path @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  ignore (C.query c (V.to_string (List.hd queries)));
  match C.stats c with
  | Error (_, msg) -> Alcotest.failf "stats refused: %s" msg
  | Ok out ->
    (* the human-readable digest and the text exposition ride together *)
    List.iter
      (fun needle ->
        check_bool ("stats carry " ^ needle) true (contains_s out needle))
      [
        "accepted"; "# TYPE nscq_requests_accepted_total counter";
        "nscq_requests_accepted_total"; "nscq_request_latency_us_bucket";
        "nscq_list_lookups_total";
      ]

let test_slow_query_log_counts () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  (* a threshold every request crosses: every completed query is slow *)
  with_server ~domains:1 ~slow_query_ms:0.0001 path @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let n = 5 in
  List.iteri
    (fun i (text, _) -> if i < n then ignore (C.query c text))
    (expected_payloads path);
  ignore (C.trace c (V.to_string (List.hd queries)));
  check_bool "slow queries counted" true
    (wait_until (fun () -> Server.Server_stats.slow (S.stats srv) >= n + 1));
  match C.stats c with
  | Ok out ->
    check_bool "slow count rendered" true (contains_s out "slow_queries");
    check_bool "slow counter exported" true
      (contains_s out "nscq_slow_queries_total")
  | Error (_, msg) -> Alcotest.failf "stats refused: %s" msg

(* --- live stores over the wire: writes, writable NSCQL, coalescing --- *)

module L = Live.Live_store

let with_temp_dir f =
  let dir = Filename.temp_file "nscq_live_srv_" "" in
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

let with_live_server ?paused ~domains ?(queue_cap = 16) ?(max_batch = 4) store f
    =
  let cfg =
    { S.default_config with S.port = 0; domains; queue_cap; max_batch;
      stats_interval_s = 0.; writable = true }
  in
  let srv =
    S.start_with ?paused cfg
      ~open_backend:(fun () -> Server.Dispatch.live_backend ~store ())
  in
  Fun.protect ~finally:(fun () -> S.stop srv) (fun () -> f srv)

(* Wire Insert/Delete and writable NSCQL against one shared live store:
   every worker sees a write as soon as it is acknowledged, and the
   server's answers equal the store's own. *)
let test_live_server_writes () =
  with_temp_dir @@ fun dir ->
  let store = L.create ~config:{ L.default with L.flush_records = 4 } dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  with_live_server ~domains:2 store @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let ids =
    List.init 6 (fun i ->
        match C.insert c (Printf.sprintf "{k%d, {shared, m%d}}" i (i mod 2)) with
        | Ok id -> id
        | Error (_, m) -> Alcotest.failf "insert %d refused: %s" i m)
  in
  Alcotest.(check (list int)) "ids are monotonic" [ 0; 1; 2; 3; 4; 5 ] ids;
  check_bool "enough inserts crossed the auto-flush threshold" true
    (L.segment_count store >= 1);
  (* reads see every write, across the sealed segment + memtable split *)
  (match C.query c "{{shared}}" with
  | Ok got -> Alcotest.(check string) "query sees all inserts" "0 1 2 3 4 5" got
  | Error (_, m) -> Alcotest.failf "query refused: %s" m);
  (* wire Delete: true for a live id, false once it is gone *)
  (match C.delete c 2 with
  | Ok deleted -> check_bool "delete a live record" true deleted
  | Error (_, m) -> Alcotest.failf "delete refused: %s" m);
  (match C.delete c 2 with
  | Ok deleted -> check_bool "re-delete answers false" false deleted
  | Error (_, m) -> Alcotest.failf "re-delete refused: %s" m);
  (* NSCQL INSERT/DELETE ride the Query verb on a writable server *)
  (match C.query c "INSERT {nscql, {shared}}" with
  | Ok got -> Alcotest.(check string) "NSCQL INSERT answers the new id" "6" got
  | Error (_, m) -> Alcotest.failf "NSCQL INSERT refused: %s" m);
  (match C.query c "DELETE 6" with
  | Ok got -> Alcotest.(check string) "NSCQL DELETE" "deleted" got
  | Error (_, m) -> Alcotest.failf "NSCQL DELETE refused: %s" m);
  (* the server's view equals the store's own *)
  let want =
    String.concat " " (List.map string_of_int (L.query store (Testutil.v "{{shared}}")))
  in
  (match C.query c "{{shared}}" with
  | Ok got -> Alcotest.(check string) "server = in-process store" want got
  | Error (_, m) -> Alcotest.failf "query refused: %s" m);
  (* a bare atom is a Bad_request, not a dead connection *)
  match C.insert c "atom" with
  | Error (W.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "bare-atom insert accepted"
  | Error (code, _) ->
    Alcotest.failf "bare-atom insert refused with %a" W.pp_error_code code

(* The wire write verbs against a read-only store backend refuse with
   Bad_request at execution (admission cannot know the backend). *)
let test_read_only_write_verbs () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  with_server ~domains:1 path @@ fun srv ->
  let c = C.connect ~port:(S.port srv) () in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (match C.insert c "{a, {b}}" with
  | Error (W.Bad_request, msg) ->
    check_bool "refusal names the fix" true (contains_s msg "read-only")
  | Ok _ -> Alcotest.fail "insert accepted by a read-only backend"
  | Error (code, _) ->
    Alcotest.failf "insert refused with %a" W.pp_error_code code);
  match C.delete c 0 with
  | Error (W.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "delete accepted by a read-only backend"
  | Error (code, _) ->
    Alcotest.failf "delete refused with %a" W.pp_error_code code

(* S1: identical concurrent joins coalesce into one evaluation — five
   queued joins dequeue as a single batch (one prefix-tree build), and
   every client still gets the full correct answer. *)
let test_identical_joins_coalesce () =
  with_temp_dir @@ fun dir ->
  let store = L.create dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  List.iter
    (fun s -> ignore (L.insert store (Testutil.v s)))
    [ "{a, {b, c}}"; "{a, d}"; "{x, {y, {b}}}"; "{a, {b}, e}" ];
  let outer = "{a}\n{{b}}" in
  let want =
    W.join_payload
      (Join.Engine.group ~outer:2
         (L.join store [ Testutil.v "{a}"; Testutil.v "{{b}}" ]))
  in
  with_live_server ~paused:true ~domains:1 ~queue_cap:16 store @@ fun srv ->
  let clients = 5 in
  let results = Array.make clients None in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            let c = C.connect ~port:(S.port srv) () in
            Fun.protect
              ~finally:(fun () -> C.close c)
              (fun () -> results.(i) <- Some (C.join c outer)))
          ())
  in
  check_bool "all joins queued" true
    (wait_until (fun () -> S.queue_depth srv = clients));
  S.resume srv;
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok got) ->
        Alcotest.(check string) (Printf.sprintf "client %d payload" i) want got
      | Some (Error (_, m)) -> Alcotest.failf "join %d refused: %s" i m
      | None -> Alcotest.fail "a client thread did not finish")
    results;
  let stats = S.stats srv in
  check_int "five joins ran as one coalesced batch" 1
    (Server.Server_stats.batches stats);
  check_int "all five were answered" clients
    (Server.Server_stats.completed stats)

let () =
  Alcotest.run "server"
    [
      ( "engine",
        [
          Alcotest.test_case "query_batch = singles" `Quick
            test_query_batch_matches_singles;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "smoke: verbs round-trip" `Quick test_smoke;
          Alcotest.test_case "5 concurrent clients match engine" `Quick
            test_concurrent_clients;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "overload sheds, resume completes" `Quick
            test_overload_and_resume;
          Alcotest.test_case "deadline expires while queued" `Quick
            test_deadline_expires_in_queue;
          Alcotest.test_case "drained dispatcher refuses" `Quick
            test_drained_dispatch_refuses;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "SIGINT leaves a clean store" `Quick
            test_sigint_leaves_clean_store;
        ] );
      ( "live",
        [
          Alcotest.test_case "writes over the wire" `Quick
            test_live_server_writes;
          Alcotest.test_case "read-only backends refuse write verbs" `Quick
            test_read_only_write_verbs;
          Alcotest.test_case "identical joins coalesce" `Quick
            test_identical_joins_coalesce;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace verb round-trips spans" `Quick
            test_trace_verb;
          Alcotest.test_case "stats carries the registry" `Quick
            test_stats_carries_registry;
          Alcotest.test_case "slow-query log counts" `Quick
            test_slow_query_log_counts;
        ] );
    ]
