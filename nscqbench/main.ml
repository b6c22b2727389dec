(* nscqbench: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Generates the workload's inputs from the seed, sets the system up,
   checks every answer against an oracle, measures for S seconds, and
   prints a table followed by one JSON line (the last line of stdout)
   holding the metrics it measured; run.py completes that set against
   BENCHMARK.json.
   --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
   untraced and half traced and reports the per-layer metrics, writing the
   recorded spans to _nscqbench/traces/<workload>.spans. Exits 1 when an
   answer was wrong or an end-to-end metric could not be measured. *)

let workloads =
  [
    ("serve-hot", Serve_hot.run);
    ("scan-cold", Scan_cold.run);
    ("ingest-mixed", Ingest_mixed.run);
    ("join-batch", Join_batch.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (serve-hot|scan-cold|ingest-mixed|join-batch) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0. ->
    let r = run ~seed ~seconds ~trace in
    Report.emit r;
    (* an end-to-end metric the run could not measure is a broken run,
       not a zero *)
    let missing = (not trace) && List.exists Report.is_unavailable r.Report.metrics in
    if missing then prerr_endline "nscqbench: an end-to-end metric is unavailable";
    exit (if r.Report.correct && not missing then 0 else 1)
  | _ -> usage ()
