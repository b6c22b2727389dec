(* End-to-end tests of the nscq command-line tool: the full pipeline
   generate → build → stats → query → sql → workload, as a user would run
   it, against each storage backend. *)

(* Resolve the built binary whether we run under `dune runtest` (cwd =
   _build/default/test) or `dune exec` from the project root. *)
let nscq =
  let candidates =
    (match Sys.getenv_opt "NSCQ_BIN" with Some p -> [ p ] | None -> [])
    @ [ "../bin/nscq.exe"; "_build/default/bin/nscq.exe"; "bin/nscq.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/nscq.exe"

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Runs the binary, returns (exit code, stdout). *)
let run_cli args =
  let out_file = Filename.temp_file "nscq_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_file with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote nscq)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out_file)
      in
      let code = Sys.command cmd in
      let ic = open_in_bin out_file in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, contents))

let expect_ok args =
  let code, out = run_cli args in
  if code <> 0 then
    Alcotest.failf "nscq %s exited %d:\n%s" (String.concat " " args) code out;
  out

let contains_s = Testutil.contains

let with_store backend f () =
  Testutil.with_temp_path ".ns" (fun data ->
      Testutil.with_temp_path ".store" (fun store ->
          let oc = open_out data in
          List.iter (fun s -> output_string oc (s ^ "\n")) Testutil.licences_strings;
          close_out oc;
          let _ =
            expect_ok [ "build"; "-i"; data; "-o"; store; "--backend"; backend ]
          in
          f ~store))

let test_build_reports backend =
  with_store backend (fun ~store:_ -> ())

let test_stats backend =
  with_store backend (fun ~store ->
      let out = expect_ok [ "stats"; "-s"; store ] in
      check_bool "records reported" true (contains_s out "records        4");
      let out = expect_ok [ "stats"; "-s"; store; "--detailed" ] in
      check_bool "detailed histograms" true (contains_s out "nodes per depth"))

let test_query backend =
  with_store backend (fun ~store ->
      let out =
        expect_ok
          [ "query"; "-s"; store; "--cache"; "10";
            "{{UK, {A, motorbike}}}" ]
      in
      check_bool "three matches" true (contains_s out "3 matching record(s)");
      let out =
        expect_ok
          [ "query"; "-s"; store; "--join"; "superset";
            (List.hd Testutil.licences_strings) ]
      in
      check_bool "superset matches itself" true (contains_s out "1 matching record(s)");
      let out =
        expect_ok
          [ "explain"; "-s"; store; "--embedding"; "homeo";
            "{{C}}" ]
      in
      check_bool "explain profile shown" true (contains_s out "phases:"))

let test_sql backend =
  with_store backend (fun ~store ->
      let out =
        expect_ok
          [ "sql"; "-s"; store;
            "COUNT CONTAINS {{UK, {A, motorbike}}}" ]
      in
      check_bool "count is 3" true (contains_s out "3");
      let out =
        expect_ok
          [ "sql"; "-s"; store; "WITNESS CONTAINS {Boston}" ]
      in
      check_bool "witness rendered" true (contains_s out "match at node");
      (* parse errors exit non-zero *)
      let code, _ = run_cli [ "sql"; "-s"; store; "FROB {a}" ] in
      check_int "bad statement fails" 1 code)

let test_workload backend =
  with_store backend (fun ~store ->
      let out =
        expect_ok
          [ "workload"; "-s"; store; "-n"; "4"; "--cache"; "5" ]
      in
      check_bool "stats line" true (contains_s out "4 queries in"))

let test_generate_roundtrip () =
  Testutil.with_temp_path ".ns" (fun data ->
      Testutil.with_temp_path ".store" (fun store ->
          let _ =
            expect_ok
              [ "generate"; "--kind"; "wide-zipf"; "-n"; "50"; "--seed"; "3"; "-o"; data ]
          in
          let out = expect_ok [ "build"; "-i"; data; "-o"; store ] in
          check_bool "indexed 50" true (contains_s out "indexed 50 records")))

let test_generate_json_xml () =
  Testutil.with_temp_path ".jsonl" (fun data ->
      Testutil.with_temp_path ".store" (fun store ->
          let _ = expect_ok [ "generate"; "--kind"; "twitter"; "-n"; "30"; "-o"; data ] in
          let out = expect_ok [ "build"; "-i"; data; "--format"; "json"; "-o"; store ] in
          check_bool "json indexed" true (contains_s out "indexed 30 records")));
  Testutil.with_temp_path ".xml" (fun data ->
      Testutil.with_temp_path ".store" (fun store ->
          let _ = expect_ok [ "generate"; "--kind"; "dblp"; "-n"; "30"; "-o"; data ] in
          let out =
            expect_ok
              [ "build"; "-i"; data; "--format"; "xml"; "--tokenize"; "-o"; store ]
          in
          check_bool "xml indexed" true (contains_s out "indexed 30 records")))

let test_admin_commands () =
  (* check / export / merge / compact over the log backend *)
  Testutil.with_temp_path ".ns" (fun data ->
      Testutil.with_temp_path ".store" (fun store ->
          Testutil.with_temp_path ".store2" (fun store2 ->
              Testutil.with_temp_path ".export" (fun export ->
                  let oc = open_out data in
                  List.iter (fun s -> output_string oc (s ^ "\n")) Testutil.licences_strings;
                  close_out oc;
                  ignore (expect_ok [ "build"; "-i"; data; "-o"; store; "--backend"; "log" ]);
                  ignore (expect_ok [ "build"; "-i"; data; "-o"; store2; "--backend"; "log" ]);
                  let out = expect_ok [ "check"; "-s"; store ] in
                  check_bool "consistent" true (contains_s out "consistent");
                  let out =
                    expect_ok
                      [ "merge"; "-s"; store; "--from"; store2 ]
                  in
                  check_bool "merged to 8" true (contains_s out "-> 8");
                  let out = expect_ok [ "check"; "-s"; store ] in
                  check_bool "still consistent" true (contains_s out "consistent");
                  ignore (expect_ok [ "export"; "-s"; store; "-o"; export ]);
                  let ic = open_in export in
                  let lines = ref 0 in
                  (try
                     while true do
                       ignore (input_line ic);
                       incr lines
                     done
                   with End_of_file -> close_in ic);
                  check_int "exported 8 records" 8 !lines;
                  let out = expect_ok [ "compact"; "-s"; store ] in
                  check_bool "compacted" true (contains_s out "compacted")))))

let test_malformed_endpoints_fail () =
  (* malformed HOST:PORT and unresolvable hosts: a one-line diagnostic
     and exit 1, never a backtrace *)
  List.iter
    (fun args ->
      let code, out = run_cli args in
      check_int (String.concat " " args) 1 code;
      check_bool "one-line diagnostic" true (contains_s out "nscq:");
      check_bool "no backtrace" false (contains_s out "Fatal error"))
    [
      [ "query"; "--connect"; "nohostport"; "{a}" ];
      [ "query"; "--connect"; "127.0.0.1:notaport"; "{a}" ];
      [ "query"; "--connect"; "127.0.0.1:99999"; "{a}" ];
      [ "stats"; "--connect"; ":" ];
      [ "serve"; "--host"; "definitely.not.a.real.host.invalid" ];
    ]

let test_shard_cli () =
  Testutil.with_temp_path ".ns" @@ fun data ->
  Testutil.with_temp_path ".manifest" @@ fun manifest ->
  Testutil.with_temp_path ".manifest" @@ fun resharded ->
  let oc = open_out data in
  List.iter (fun s -> output_string oc (s ^ "\n")) Testutil.licences_strings;
  close_out oc;
  let rm_shards () =
    List.iter
      (fun m ->
        let dir = Filename.dirname m and base = Filename.basename m in
        let stem = Filename.remove_extension base in
        Array.iter
          (fun f ->
            if
              String.length f > String.length stem
              && String.sub f 0 (String.length stem) = stem
              && contains_s f ".shard"
            then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir))
      [ manifest; resharded ]
  in
  Fun.protect ~finally:rm_shards @@ fun () ->
  let out =
    expect_ok [ "shard"; "build"; "-i"; data; "--shards"; "3"; "-o"; manifest ]
  in
  check_bool "3 shards built" true (contains_s out "3 shard(s)");
  let out = expect_ok [ "shard"; "status"; "-m"; manifest ] in
  check_bool "status lists live records" true (contains_s out "4/4 live record(s)");
  (* plain query auto-detects the manifest and routes over the shards *)
  let out = expect_ok [ "query"; "-s"; manifest; "{{UK, {A, motorbike}}}" ] in
  check_bool "sharded query matches" true (contains_s out "3 matching record(s)");
  let out = expect_ok [ "stats"; "-s"; manifest ] in
  check_bool "stats shows manifest" true (contains_s out "shard manifest");
  let out =
    expect_ok
      [ "shard"; "reshard"; "-m"; manifest; "--shards"; "2"; "-o"; resharded ]
  in
  check_bool "resharded to 2" true (contains_s out "2 shard(s)");
  let out = expect_ok [ "query"; "-s"; resharded; "{{UK, {A, motorbike}}}" ] in
  check_bool "resharded query matches" true (contains_s out "3 matching record(s)")

let write_licences data =
  let oc = open_out data in
  List.iter (fun s -> output_string oc (s ^ "\n")) Testutil.licences_strings;
  close_out oc

(* [f ~build data dir]: the licences fixture as a nested-set file and as
   a live store directory built from it; [build] is the build command's
   output. *)
let with_live_dir f =
  Testutil.with_temp_path ".ns" @@ fun data ->
  Testutil.with_temp_path ".live" @@ fun dir ->
  Sys.remove dir;
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  write_licences data;
  let build = expect_ok [ "build"; "-i"; data; "-o"; dir; "--live" ] in
  f ~build data dir

(* The live-store lifecycle as a user drives it: build --live, online
   insert/delete, flush, compact, and every read/admin command detecting
   the directory. *)
let test_live_cli () =
  with_live_dir @@ fun ~build:out data dir ->
  Testutil.with_temp_path ".export" @@ fun export ->
  check_bool "live build reports" true (contains_s out "ingested 4 record(s)");
  (* reads auto-detect the directory *)
  let out = expect_ok [ "query"; "-s"; dir; "{{UK, {A, motorbike}}}" ] in
  check_bool "live query matches" true (contains_s out "3 matching record(s)");
  (* online writes *)
  let out = expect_ok [ "insert"; "-s"; dir; "{UK, {fresh}}" ] in
  check_bool "insert answers the id" true (contains_s out "record 4 inserted");
  let out = expect_ok [ "delete"; "-s"; dir; "4" ] in
  check_bool "delete confirms" true (contains_s out "record 4 deleted");
  let code, out = run_cli [ "delete"; "-s"; dir; "4" ] in
  check_int "re-delete exits 1" 1 code;
  check_bool "re-delete says why" true (contains_s out "no such live record");
  (* seal + merge *)
  ignore (expect_ok [ "insert"; "-s"; dir; "{more, {data}}" ]);
  let out = expect_ok [ "flush"; "-s"; dir ] in
  check_bool "flush seals" true (contains_s out "sealed 1 record(s)");
  let out = expect_ok [ "compact"; "-s"; dir; "--all" ] in
  check_bool "compact merges" true (contains_s out "compacted");
  (* the answer survives the churn *)
  let out = expect_ok [ "query"; "-s"; dir; "{{UK, {A, motorbike}}}" ] in
  check_bool "query still matches" true (contains_s out "3 matching record(s)");
  (* admin commands detect the directory too *)
  let out = expect_ok [ "stats"; "-s"; dir ] in
  check_bool "stats lists live records" true (contains_s out "records_live");
  let out = expect_ok [ "check"; "-s"; dir ] in
  check_bool "check is clean" true (contains_s out "consistent");
  let out = expect_ok [ "repair"; "-s"; dir; "--dry-run" ] in
  check_bool "nothing to repair" true (contains_s out "nothing to repair");
  ignore (expect_ok [ "export"; "-s"; dir; "-o"; export ]);
  let ic = open_in export in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  check_int "exported the live records" 5 !lines;
  let out = expect_ok [ "trace"; "-s"; dir; "{{UK, {A, motorbike}}}" ] in
  check_bool "trace spans the parts" true
    (contains_s out "memtable" && contains_s out "segment:");
  (* a fresh store file is NOT misdetected as live *)
  let code, out = run_cli [ "insert"; "-s"; data; "{a}" ] in
  check_int "insert into a flat file fails" 1 code;
  check_bool "says it is not live" true (contains_s out "not a live store");
  (* commands without a live path refuse a live dir cleanly, not with an
     uncaught backend exception *)
  let code, out = run_cli [ "sql"; "-s"; dir; "COUNT CONTAINS {a}" ] in
  check_int "sql over a live dir fails cleanly" 1 code;
  check_bool "sql names the live store" true (contains_s out "is a live store")

let test_trace_cli () =
  with_store "hash" (fun ~store ->
      let out =
        expect_ok
          [ "trace"; "-s"; store; "--cache"; "10";
            "{{UK, {A, motorbike}}}" ]
      in
      check_bool "result count" true (contains_s out "3 matching record(s)");
      check_bool "trace header" true (contains_s out "trace ");
      check_bool "retrieve phase" true (contains_s out "retrieve");
      check_bool "eval phase" true (contains_s out "eval");
      check_bool "per-atom spans" true (contains_s out "atom:");
      check_bool "io attrs" true (contains_s out "lookups="))
    ()

let test_stats_metrics_cli () =
  with_store "hash" (fun ~store ->
      let out =
        expect_ok [ "stats"; "-s"; store; "--metrics" ]
      in
      check_bool "text exposition" true
        (contains_s out "# TYPE nscq_io_reads_total counter");
      check_bool "both io sources" true
        (contains_s out "{source=\"store\"}");
      let out =
        expect_ok [ "stats"; "-s"; store; "--json" ]
      in
      check_bool "json dump" true
        (contains_s out "\"name\":\"nscq_io_reads_total\""))
    ()

let test_missing_store_fails () =
  List.iter
    (fun args ->
      let code, out = run_cli args in
      check_int "exit code 1" 1 code;
      check_bool "one-line diagnostic" true (contains_s out "does not exist");
      (* a clean message, not a raw exception trace *)
      check_bool "no backtrace" false (contains_s out "Fatal error"))
    [
      [ "stats"; "-s"; "/nonexistent/store.tch" ];
      [ "query"; "-s"; "/nonexistent/store.tch"; "{a}" ];
    ]

(* A store still holding a list in the retired bitpacked format ('B'):
   query fails with one line naming the store, the codec and the repair
   (exit 1), check reports the payload, and after repair the answers
   match the naive scan. *)
let test_retired_codec_store =
  with_store "hash" (fun ~store ->
      let kv = Storage.Hash_store.open_existing store in
      let key = Invfile.Inverted_file.atom_key "UK" in
      (match kv.Storage.Kv.get key with
      | Some payload -> kv.Storage.Kv.put key ("B" ^ payload)
      | None -> Alcotest.fail "no list for UK");
      kv.Storage.Kv.close ();
      let q = "{{UK, {A, motorbike}}}" in
      let code, out = run_cli [ "query"; "-s"; store; q ] in
      check_int "query exits 1" 1 code;
      check_bool "one line" true
        (List.length (String.split_on_char '\n' (String.trim out)) = 1);
      check_bool "names the store" true (contains_s out ("nscq: " ^ store ^ ": "));
      check_bool "names the codec" true (contains_s out "retired bitpacked");
      check_bool "names the repair" true (contains_s out "nscq repair");
      let code, out = run_cli [ "check"; "-s"; store ] in
      check_int "check exits 1" 1 code;
      check_bool "check reports the payload" true (contains_s out "\"UK\"");
      ignore (expect_ok [ "repair"; "-s"; store ]);
      ignore (expect_ok [ "check"; "-s"; store ]);
      List.iter
        (fun q ->
          (* the records, without the first line's timing *)
          let run extra =
            expect_ok ([ "query"; "-s"; store ] @ extra @ [ q ])
            |> String.split_on_char '\n'
            |> List.tl
          in
          Alcotest.(check (list string)) ("repaired answers " ^ q)
            (run [ "--algorithm"; "naive" ]) (run []))
        [ q; "{UK}"; "{London, UK}" ])

(* A hash store whose record heap was cut short: check and repair both
   fail with one typed line naming the store and the repair (exit 1),
   never an internal error. *)
let test_truncated_hash_store () =
  Testutil.with_temp_path ".ns" @@ fun data ->
  Testutil.with_temp_path ".tch" @@ fun store ->
  ignore
    (expect_ok
       [ "generate"; "-n"; "40"; "--seed"; "9"; "--labels"; "150"; "-o"; data ]);
  ignore
    (expect_ok
       [ "build"; "--backend"; "hash"; "--buckets"; "16"; "-i"; data; "-o"; store ]);
  Unix.truncate store ((Unix.stat store).Unix.st_size - 300);
  List.iter
    (fun verb ->
      let code, out = run_cli [ verb; "-s"; store ] in
      check_int (verb ^ " exits 1") 1 code;
      check_bool (verb ^ ": one line") true
        (List.length (String.split_on_char '\n' (String.trim out)) = 1);
      check_bool (verb ^ ": names the store") true
        (contains_s out ("nscq: " ^ store ^ ": "));
      check_bool (verb ^ ": names the repair") true (contains_s out "nscq repair");
      check_bool (verb ^ ": no internal error") false
        (contains_s out "internal error"))
    [ "check"; "repair" ]

(* Starts [nscq serve] with [args] on an ephemeral port, runs [f port],
   then stops the server with SIGINT. *)
let with_server args f =
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process nscq
      (Array.of_list
         ((nscq :: "serve" :: args)
         @ [ "--port"; "0"; "--stats-interval"; "0"; "--no-flight" ]))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic)
  @@ fun () ->
  let marker = "listening on 127.0.0.1:" in
  let m = String.length marker in
  let rec find_port () =
    match input_line ic with
    | exception End_of_file -> Alcotest.fail "server exited before listening"
    | line ->
      let rec at i =
        if i + m > String.length line then None
        else if String.sub line i m = marker then
          Some
            (Scanf.sscanf
               (String.sub line (i + m) (String.length line - i - m))
               "%d" Fun.id)
        else at (i + 1)
      in
      (match at 0 with Some port -> port | None -> find_port ())
  in
  f (find_port ())

(* Every verb that takes --connect, against a writable server over a
   live directory. *)
let test_connect_cli () =
  with_live_dir @@ fun ~build:_ _data dir ->
  Testutil.with_temp_path ".outer" @@ fun outer ->
  let oc = open_out outer in
  output_string oc "{{UK, {A, motorbike}}}\n{{FR}}\n";
  close_out oc;
  with_server [ "-s"; dir ] @@ fun port ->
  let connect = [ "--connect"; Printf.sprintf "127.0.0.1:%d" port ] in
  let q = "{{UK, {A, motorbike}}}" in
  let out = expect_ok ([ "query" ] @ connect @ [ q ]) in
  check_bool "query" true (contains_s out "3 matching record(s)");
  let out = expect_ok ([ "join" ] @ connect @ [ "-q"; outer ]) in
  check_bool "join" true (contains_s out "4 pair(s) across 2 outer queries");
  let out = expect_ok ([ "trace" ] @ connect @ [ q ]) in
  check_bool "trace count" true (contains_s out "3 matching record(s)");
  check_bool "trace spans" true (contains_s out "trace ");
  let out = expect_ok ([ "explain" ] @ connect @ [ q ]) in
  check_bool "explain" true (contains_s out "phases:");
  ignore (expect_ok ([ "stats" ] @ connect));
  let out = expect_ok ([ "insert" ] @ connect @ [ "{UK, {fresh}}" ]) in
  check_bool "insert" true (contains_s out "record 4 inserted");
  let out = expect_ok ([ "delete" ] @ connect @ [ "4" ]) in
  check_bool "delete" true (contains_s out "record 4 deleted")

(* No format flag on the read verbs: each store file names its own
   format in its header, and a file that is not a store is a one-line
   error, not an internal one. *)
let test_store_format_from_header () =
  List.iter
    (fun backend ->
      with_store backend
        (fun ~store ->
          let out = expect_ok [ "query"; "-s"; store; "{{UK, {A, motorbike}}}" ] in
          check_bool (backend ^ " query") true
            (contains_s out "3 matching record(s)");
          let out = expect_ok [ "check"; "-s"; store ] in
          check_bool (backend ^ " check") true (contains_s out "consistent");
          let out = expect_ok [ "stats"; "-s"; store ] in
          check_bool (backend ^ " stats") true (contains_s out "records        4");
          let out = expect_ok [ "export"; "-s"; store ] in
          check_int (backend ^ " export") 4
            (List.length (String.split_on_char '\n' (String.trim out))))
        ())
    [ "log"; "btree" ];
  Testutil.with_temp_path ".ns" @@ fun data ->
  write_licences data;
  let code, out = run_cli [ "query"; "-s"; data; "{UK}" ] in
  check_int "not a store: exit 1" 1 code;
  check_bool "one line" true
    (List.length (String.split_on_char '\n' (String.trim out)) = 1);
  check_bool "names the file" true (contains_s out ("nscq: " ^ data));
  check_bool "no internal error" false (contains_s out "internal error")

let backend_cases backend =
  [
    Alcotest.test_case (backend ^ ": build") `Quick (test_build_reports backend);
    Alcotest.test_case (backend ^ ": stats") `Quick (test_stats backend);
    Alcotest.test_case (backend ^ ": query") `Quick (test_query backend);
    Alcotest.test_case (backend ^ ": sql") `Quick (test_sql backend);
    Alcotest.test_case (backend ^ ": workload") `Quick (test_workload backend);
  ]

let () =
  Alcotest.run "cli"
    [
      ("hash backend", backend_cases "hash");
      ("btree backend", backend_cases "btree");
      ("log backend", backend_cases "log");
      ( "pipelines",
        [
          Alcotest.test_case "generate → build" `Quick test_generate_roundtrip;
          Alcotest.test_case "json/xml ingestion" `Quick test_generate_json_xml;
          Alcotest.test_case "admin commands" `Quick test_admin_commands;
          Alcotest.test_case "missing store" `Quick test_missing_store_fails;
          Alcotest.test_case "retired codec: error, check, repair" `Quick
            test_retired_codec_store;
          Alcotest.test_case "truncated hash store: typed error" `Quick
            test_truncated_hash_store;
          Alcotest.test_case "malformed endpoints" `Quick
            test_malformed_endpoints_fail;
          Alcotest.test_case "shard build/status/query/reshard" `Quick
            test_shard_cli;
          Alcotest.test_case "live build/insert/delete/flush/compact" `Quick
            test_live_cli;
          Alcotest.test_case "--connect against a live server" `Quick
            test_connect_cli;
          Alcotest.test_case "store format is read from the header" `Quick
            test_store_format_from_header;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace prints the span tree" `Quick
            test_trace_cli;
          Alcotest.test_case "stats --metrics/--json" `Quick
            test_stats_metrics_cli;
        ] );
    ]
