(* The benchmark's own arithmetic: percentile selection and the
   ten-samples-beyond rule, self-time subtraction over span trees, and
   the error rate an injected wrong answer must show up in. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let a = Bstats.sorted (List.rev (floats 100)) in
  check_float "p50 of 1..100" 50. (Bstats.percentile a 50);
  check_float "p90 of 1..100" 90. (Bstats.percentile a 90);
  check_float "p100 is the max" 100. (Bstats.percentile a 100);
  let b = Bstats.sorted (floats 7) in
  (* ceil(0.5 * 7) = 4 *)
  check_float "p50 of 1..7" 4. (Bstats.percentile b 50);
  check_float "p1 of 1..7 is the min" 1. (Bstats.percentile b 1);
  check_int "rank of one sample" 1 (Bstats.rank ~n:1 ~pct:99)

let test_tail_rule () =
  let opt = Alcotest.(option (float 1e-9)) in
  (* p99 of 1000 samples leaves exactly 10 beyond it *)
  Alcotest.check opt "p99 of 1000" (Some 990.) (Bstats.tail (Bstats.sorted (floats 1000)) 99);
  Alcotest.check opt "p99 of 999: only 9 beyond" None
    (Bstats.tail (Bstats.sorted (floats 999)) 99);
  Alcotest.check opt "p90 of 100" (Some 90.) (Bstats.tail (Bstats.sorted (floats 100)) 90);
  Alcotest.check opt "p90 of 99" None (Bstats.tail (Bstats.sorted (floats 99)) 90);
  Alcotest.check opt "p50 of 19" None (Bstats.tail (Bstats.sorted (floats 19)) 50);
  Alcotest.check opt "no samples" None (Bstats.tail [||] 50)

let test_median () =
  check_float "odd" 2. (Bstats.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ])

let test_best_reps () =
  let rep piece dur_ms = { Bstats.piece; dur_ms; ops_ms = [ dur_ms /. 2.; dur_ms /. 2. ] } in
  let reps = [ rep 1 9.; rep 0 5.; rep 1 7.; rep 0 6.; rep 1 8. ] in
  (* the fastest repetition of each piece, ordered by piece *)
  Alcotest.(check (list (pair int (float 0.))))
    "fastest per piece"
    [ (0, 5.); (1, 7.) ]
    (List.map (fun r -> (r.Bstats.piece, r.Bstats.dur_ms)) (Bstats.best_reps reps));
  let pass = { Report.reps; t0 = 0; t_end = 1_000_000_000 } in
  Alcotest.(check (option (float 1e-9))) "best pass" (Some 12.) (Report.best_pass_ms ~pieces:2 pass);
  (* a piece that never finished a repetition leaves no best pass *)
  Alcotest.(check (option (float 1e-9))) "missing piece" None (Report.best_pass_ms ~pieces:3 pass);
  let find name = List.find (fun m -> m.Report.name = name) in
  let e2e =
    Report.end_to_end ~pieces:2 ~probe_ms:0.5 ~setup_times:[ 1.; 3.; 2. ] ~space_amp:1. ~rss_mb:1.
      pass
  in
  check_float "setup median" 2. (find "setup_s" e2e).Report.value;
  (* the gated figure is the best pass in units of the probe's time *)
  check_float "best pass per probe" 24. (find "best_pass_per_probe" e2e).Report.value;
  let printed = Report.best_pass ~pieces:2 ~probe:(0.5, 3) pass in
  check_float "best pass" 12. (find "best_pass_ms" printed).Report.value;
  (* ops of the fastest repetitions: 2.5 2.5 3.5 3.5 *)
  check_float "op median" 2.5 (Report.best_op_p50 ~pieces:2 pass).Report.value;
  let short =
    Report.end_to_end ~pieces:3 ~probe_ms:0.5 ~setup_times:[ 1. ] ~space_amp:1. ~rss_mb:1. pass
  in
  Alcotest.(check bool) "unavailable" true (Report.is_unavailable (find "best_pass_per_probe" short))

let test_self_time () =
  check_int "no children" 100 (Bstats.self_time ~lo:0 ~hi:100 []);
  (* overlapping children count once; the part spilling past the parent
     is clipped *)
  check_int "overlap and spill" 60
    (Bstats.self_time ~lo:0 ~hi:100 [ (10, 30); (20, 40); (90, 120) ]);
  check_int "nested children" 80 (Bstats.self_time ~lo:0 ~hi:100 [ (10, 30); (15, 20) ]);
  check_int "fully covered" 0 (Bstats.self_time ~lo:0 ~hi:100 [ (0, 50); (50, 100) ]);
  check_int "child outside" 100 (Bstats.self_time ~lo:0 ~hi:100 [ (200, 300) ])

let span id parent name start_ns stop_ns =
  { Spans.id; parent; req = id; name; dom = 0; start_ns; stop_ns }

let test_layer_self_times () =
  (* a request (server) whose batch (containment) spends part of its time
     in one storage get; a second request served by the same batch is
     covered by a link span, which belongs to no layer *)
  let spans =
    [
      span 1 0 "server.request" 0 100;
      span 2 1 "containment.batch" 20 80;
      span 3 2 "storage.get" 30 50;
      span 4 0 "server.request" 10 90;
      span 5 4 "link.exec" 20 80;
    ]
  in
  Alcotest.(check (list (pair string int)))
    "self time per layer"
    [ ("containment", 40); ("server", 40 + 20); ("storage", 20) ]
    (Spans.self_by_layer spans)

let test_adopt () =
  (* a storage call recorded under the batch moves under the engine phase
     that was running when it happened *)
  let spans =
    [
      span 1 0 "containment.batch" 0 100;
      span 2 1 "invfile.retrieve" 10 40;
      span 3 1 "containment.eval" 40 90;
      span 4 1 "storage.get" 20 30;
    ]
  in
  Spans.adopt
    ~who:(fun s -> s.Spans.name = "storage.get")
    ~into:(fun s -> s.Spans.name <> "containment.batch")
    spans;
  Spans.propagate_requests spans;
  let get = List.nth spans 3 in
  check_int "re-homed under retrieve" 2 get.Spans.parent;
  check_int "inherits the request id" 1 get.Spans.req

let test_wrong_answer_counted () =
  let v = Nested.Syntax.of_string in
  let oracle = Oracle.create [| v "{a, b, {c}}"; v "{a, {c, d}}"; v "{b}" |] in
  let tally = Tally.create () in
  let answer q = Oracle.payload (Oracle.answer oracle (v q)) in
  Alcotest.(check string) "oracle" "0 1" (answer "{a, {c}}");
  Tally.check tally (answer "{a, {c}}" = "0 1");
  Tally.check tally (answer "{b}" = "0 2");
  (* an injected wrong reply: record 1 does not hold b *)
  Tally.check tally (answer "{b}" = "0 1 2");
  check_int "attempted" 3 tally.Tally.attempted;
  check_int "bad" 1 (Tally.bad tally);
  check_float "error rate" (1. /. 3.) (Tally.error_rate tally);
  Tally.refuse tally;
  check_float "a refusal counts too" 0.5 (Tally.error_rate tally)

let () =
  Alcotest.run "benchkit"
    [
      ( "bstats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "best repetitions" `Quick test_best_reps;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ( "spans",
        [
          Alcotest.test_case "layer self times" `Quick test_layer_self_times;
          Alcotest.test_case "adopt" `Quick test_adopt;
        ] );
      ("tally", [ Alcotest.test_case "wrong answer" `Quick test_wrong_answer_counted ]);
    ]
