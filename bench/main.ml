(* Benchmark driver.

     dune exec bench/main.exe                 -- all experiments, scaled down
     dune exec bench/main.exe -- --full       -- larger sizes
     dune exec bench/main.exe -- --only fig6a,naive
     dune exec bench/main.exe -- --no-micro   -- skip the bechamel suite

   Each paper table/figure has a figure-series harness (Experiments) that
   prints the rows the paper plots, and a bechamel Test.make below that
   measures one representative workload for that figure.

   The subsystem experiments E20-E27 also write their numbers to
   BENCH_ledger.jsonl; the run exits 1 when one of their gates fails or
   an experiment raises. *)

(* Console output is this program's purpose, and executables have no
   interface files: R2/R5 are opted out explicitly rather than scoped
   away, so the rest of the rules (R1 above all) still apply. *)
[@@@lint.allow io mli]

module E = Containment.Engine
module Sem = Containment.Semantics

(* --- bechamel micro/per-figure suite --- *)

let bechamel_suite () =
  let open Bechamel in
  (* one shared small collection per shape, built once *)
  let size = 1_000 in
  let build shape dist name =
    (* deep data capped at depth 10, as in the figure harness *)
    let max_depth =
      match shape with Datagen.Synthetic.Wide -> 16 | Datagen.Synthetic.Deep -> 10
    in
    Harness.build ~backend:Harness.Mem ~name
      (Datagen.Synthetic.seq
         (Datagen.Synthetic.make ~seed:99
            ~params:(Datagen.Synthetic.params_of_shape ~max_depth shape)
            dist)
         size)
  in
  let uw, _ = build Datagen.Synthetic.Wide Datagen.Synthetic.Uniform "bch_uw" in
  let ud, _ = build Datagen.Synthetic.Deep Datagen.Synthetic.Uniform "bch_ud" in
  let sw, _ = build Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) "bch_sw" in
  let sd, _ = build Datagen.Synthetic.Deep (Datagen.Synthetic.Zipfian 0.7) "bch_sd" in
  let tw, _ =
    Harness.build ~backend:Harness.Mem ~name:"bch_tw"
      (Datagen.Twitter_sim.seq (Datagen.Twitter_sim.make ~seed:99 ()) size)
  in
  let db, _ =
    Harness.build ~backend:Harness.Mem ~name:"bch_db"
      (Datagen.Dblp_sim.seq (Datagen.Dblp_sim.make ~seed:99 ()) size)
  in
  let queries inv = Harness.paper_queries ~count:10 inv in
  let q_uw = queries uw and q_ud = queries ud and q_sw = queries sw in
  let q_sd = queries sd and q_tw = queries tw and q_db = queries db in
  let workload ?(config = E.default) inv qs =
    Staged.stage (fun () -> ignore (E.run_workload ~config inv qs))
  in
  (* one Test.make per reproduced table/figure *)
  let figure_tests =
    [
      Test.make ~name:"fig6a/uniform-wide" (workload uw q_uw);
      Test.make ~name:"fig6b/uniform-deep" (workload ud q_ud);
      Test.make ~name:"fig6c/skewed-wide" (workload sw q_sw);
      Test.make ~name:"fig6d/skewed-deep" (workload sd q_sd);
      Test.make ~name:"fig6e/twitter" (workload tw q_tw);
      Test.make ~name:"fig6f/dblp" (workload db q_db);
      Test.make ~name:"table1/paper-example"
        (Staged.stage (fun () ->
             let inv = Containment.Collection.paper_example () in
             ignore (E.query inv Containment.Collection.paper_example_query)));
      Test.make ~name:"e4/naive-scan"
        (workload ~config:{ E.default with E.algorithm = E.Naive_scan } uw q_uw);
      Test.make ~name:"e6/superset-join"
        (workload ~config:{ E.default with E.join = Sem.Superset } sw q_sw);
      Test.make ~name:"e6/overlap-join"
        (workload ~config:{ E.default with E.join = Sem.Overlap 1 } sw q_sw);
      Test.make ~name:"e7/iso" (workload ~config:{ E.default with E.embedding = Sem.Iso } ud q_ud);
      Test.make ~name:"e7/homeo"
        (workload ~config:{ E.default with E.embedding = Sem.Homeo } ud q_ud);
      (let fi = Containment.Filter_index.build sw in
       Test.make ~name:"e5/bloom-prefilter"
         (workload ~config:{ E.default with E.filter_index = Some fi } sw q_sw));
      (Containment.Collection.with_static_cache sw ~budget:250;
       Test.make ~name:"e8/cached-250" (workload sw q_sw));
    ]
  in
  (* core-operation micro benches *)
  let l1 =
    Invfile.Plist_ref.to_plist
      (Array.init 10_000 (fun i ->
           { Invfile.Plist_ref.node = 3 * i; children = [| (3 * i) + 1 |];
             leaf_count = 2; post = 3 * i; parent = -1 }))
  in
  let l2 =
    Invfile.Plist_ref.to_plist
      (Array.init 10_000 (fun i ->
           { Invfile.Plist_ref.node = 5 * i; children = [| (5 * i) + 1 |];
             leaf_count = 2; post = 5 * i; parent = -1 }))
  in
  let bloom_a = Containment.Bloom.create ~bits:1024 () in
  let bloom_b = Containment.Bloom.create ~bits:1024 () in
  let () =
    for i = 0 to 19 do
      Containment.Bloom.add bloom_a ("k" ^ string_of_int i);
      Containment.Bloom.add bloom_b ("k" ^ string_of_int i)
    done
  in
  let zipf = Datagen.Zipf.create ~n:100_000 ~theta:0.7 in
  let rng = Random.State.make [| 1 |] in
  let micro_tests =
    [
      Test.make ~name:"micro/plist-inter-10k"
        (Staged.stage (fun () ->
             let module St = Invfile.Plist_stream in
             ignore (St.inter_many [ St.cursor_of_plist l1; St.cursor_of_plist l2 ])));
      Test.make ~name:"micro/plist-codec-10k"
        (Staged.stage (fun () -> ignore (Invfile.Plist.of_bytes (Invfile.Plist.to_bytes l1))));
      Test.make ~name:"micro/bloom-subset"
        (Staged.stage (fun () -> ignore (Containment.Bloom.subset bloom_a bloom_b)));
      Test.make ~name:"micro/zipf-sample"
        (Staged.stage (fun () -> ignore (Datagen.Zipf.sample zipf rng)));
      Test.make ~name:"micro/value-parse"
        (Staged.stage (fun () ->
             ignore
               (Nested.Syntax.of_string
                  "{London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}")));
    ]
  in
  let test =
    Test.make_grouped ~name:"nscq" ~fmt:"%s/%s" [
      Test.make_grouped ~name:"figures" ~fmt:"%s %s" figure_tests;
      Test.make_grouped ~name:"micro" ~fmt:"%s %s" micro_tests;
    ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:true ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw) instances
    in
    Analyze.merge ols instances results
  in
  Printf.printf "\n=== bechamel suite (ns per run, OLS estimate) ===\n%!";
  let results = benchmark () in
  (match
     Hashtbl.find_opt results
       (Bechamel.Measure.label Bechamel.Toolkit.Instance.monotonic_clock)
   with
  | None -> print_endline "no results"
  | Some per_test ->
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | _ -> Float.nan
        in
        rows := (name, est) :: !rows)
      per_test;
    List.iter
      (fun (name, est) ->
        if Float.is_nan est then Printf.printf "%-28s  (no estimate)\n" name
        else if est > 1e6 then Printf.printf "%-28s  %10.3f ms/run\n" name (est /. 1e6)
        else Printf.printf "%-28s  %10.0f ns/run\n" name est)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows))

(* --- driver --- *)

let run_experiments ~full ~only ~micro ~csv =
  Harness.csv_dir := csv;
  let scale = if full then Experiments.full_scale else Experiments.default_scale in
  let selected =
    match only with
    | [] -> Experiments.all
    | names ->
      List.filter (fun (name, _, _) -> List.exists (String.equal name) names) Experiments.all
  in
  if selected = [] then begin
    Printf.eprintf "No matching experiments. Available:\n";
    List.iter (fun (n, d, _) -> Printf.eprintf "  %-16s %s\n" n d) Experiments.all;
    exit 1
  end;
  Printf.printf "nscq benchmark harness — %d experiment(s), %s scale\n"
    (List.length selected)
    (if full then "full" else "default");
  Printf.printf
    "(sizes are scaled down from the paper's 125K-4M records; shapes, not \
     absolute numbers, are the reproduction target — see EXPERIMENTS.md)\n%!";
  List.iter
    (fun (name, _, f) ->
      Harness.run ~name (fun () -> f scale);
      print_newline ())
    selected;
  let status = Harness.finish () in
  if micro then bechamel_suite ();
  status

let () =
  let open Cmdliner in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Run the larger size sweep.")
  in
  let only =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"NAMES"
          ~doc:"Comma-separated experiment names (e.g. fig6a,naive).")
  in
  let no_micro =
    Arg.(value & flag & info [ "no-micro" ] ~doc:"Skip the bechamel suite.")
  in
  let micro_only =
    Arg.(value & flag & info [ "micro-only" ] ~doc:"Run only the bechamel suite.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let main full only no_micro micro_only csv =
    if micro_only then (bechamel_suite (); 0)
    else run_experiments ~full ~only ~micro:(not no_micro) ~csv
  in
  let term = Term.(const main $ full $ only $ no_micro $ micro_only $ csv) in
  let info =
    Cmd.info "nscq-bench"
      ~doc:"Reproduce the tables and figures of Ibrahim & Fletcher, EDBT 2013."
  in
  exit (Cmd.eval' (Cmd.v info term))
