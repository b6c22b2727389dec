(* The gate logic of the bench ledger: bounds, NaN, the ledger's JSON
   lines, and the exit status a failed gate or a raised experiment
   gives the run. *)

module H = Harness
module J = Textformats.Json

let bounds () =
  List.iter
    (fun (name, bound, v, want) -> Alcotest.(check bool) name want (H.holds bound v))
    [ ("<= below", H.At_most 5., 4.9, true); ("<= at", H.At_most 5., 5., true);
      ("<= above", H.At_most 5., 5.1, false); ("<= nan", H.At_most 5., Float.nan, false);
      (">= below", H.At_least 5., 4.9, false); (">= at", H.At_least 5., 5., true);
      (">= above", H.At_least 5., 5.1, true); (">= nan", H.At_least 5., Float.nan, false) ]

let rows =
  [ H.cell "plain" "ms" 1.5; H.cell ~bound:(H.At_most 5.) "gated" "%" 2.;
    H.cell ~bound:(H.At_least 5.) "missed" "x" Float.nan;
    { (H.cell "raised" "" 0.) with gate = Some H.Error } ]
  |> List.map (fun c -> { c with H.experiment = "e"; row = "r" })

let ledger_round_trip () =
  let path = Filename.temp_file "nscq_ledger" ".jsonl" in
  H.write_ledger path rows;
  let parsed = J.parse_many (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  let str s = Some (J.String s) and opt = Option.fold ~none:J.Null ~some:(fun s -> J.String s) in
  Alcotest.(check int) "one line per row" (List.length rows) (List.length parsed);
  List.iter2
    (fun (r : H.row) j ->
      let same k want = Alcotest.(check bool) k true (Option.equal J.equal (J.member k j) want) in
      same "experiment" (str r.experiment);
      same "row" (str r.row);
      same "metric" (str r.metric);
      same "value" (Some (if Float.is_nan r.value then J.Null else J.Number r.value));
      same "unit" (str r.unit);
      same "gate" (Some (opt (Option.map H.verdict_name r.gate))))
    rows parsed

let exit_status () =
  let ok = List.filter (fun (r : H.row) -> r.metric = "plain" || r.metric = "gated") rows in
  Alcotest.(check int) "all pass" 0 (H.exit_status ok);
  List.iter
    (fun (r : H.row) -> Alcotest.(check int) r.metric 1 (H.exit_status (ok @ [ r ])))
    (List.filter (fun r -> not (List.memq r ok)) rows)

(* a raising experiment becomes an error row, and the run goes on *)
let run_continues () =
  H.ledger := [];
  H.run ~name:"raises" (fun () -> failwith "oracle");
  H.run ~name:"gated" (fun () -> H.report [ ("r", [ H.cell ~bound:(H.At_most 1.) "m" "%" 2. ]) ]);
  Alcotest.(check (list (pair string (option string))))
    "verdicts" [ ("raises", Some "error"); ("gated", Some "fail") ]
    (List.rev_map (fun (r : H.row) -> (r.experiment, Option.map H.verdict_name r.gate)) !H.ledger);
  H.ledger := []

let () =
  Alcotest.run "harness"
    [ ( "gates",
        [ Alcotest.test_case "bounds and nan" `Quick bounds;
          Alcotest.test_case "run continues" `Quick run_continues ] );
      ( "ledger",
        [ Alcotest.test_case "round trip" `Quick ledger_round_trip;
          Alcotest.test_case "exit status" `Quick exit_status ] ) ]
