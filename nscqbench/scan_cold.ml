(* scan-cold: sequential Engine.query under Engine.default over Twitter
   stand-in records in an on-disk hash store with no list cache — the
   paper's caching-disabled Tokyo Cabinet setting (Fig. 6e). Stopword
   atoms' lists span the whole collection, so every query fetches and
   decodes long posting lists: the workload for invfile decoding and the
   intersection kernels. The server does no work here. *)

module E = Containment.Engine
module IF = Invfile.Inverted_file

let records = 2_000
(* the paper's workload (Sec. 5.2): 50 positive and 50 negative queries,
   run in the same order over and over *)
let distinct_queries = 100
(* a piece of 25 queries takes a few tenths of a second *)
let piece_queries = 25
let pieces = distinct_queries / piece_queries
let setups = 9
let warmup_s = 0.5

let generate seed =
  Array.of_seq (Datagen.Twitter_sim.seq (Datagen.Twitter_sim.make ~seed ()) records)

(* Build and reopen: the handle a query session starts from. *)
let setup ?kv_probe path values =
  let b = Invfile.Builder.create (Storage.Hash_store.create path) in
  Array.iter (fun v -> ignore (Invfile.Builder.add_value b v)) values;
  IF.close (Invfile.Builder.finish b);
  let kv = Storage.Hash_store.open_existing path in
  IF.open_store (match kv_probe with Some p -> Probes.wrap_kv p kv | None -> kv)

type pass = { run : Report.pass; words : float }

let run ~seed ~seconds ~trace =
  let values = generate seed in
  let queries = Oracle.paper_queries ~seed ~count:distinct_queries values in
  let oracle = Oracle.create values in
  let expected = Array.map (Oracle.answer oracle) queries in
  let tally = Tally.create () in
  let baseline = Util.rss_baseline () in
  let dir = Util.work_dir () in
  let path = Filename.concat dir "scan.tch" in
  let kv_probe = if trace then Some (Probes.kv ()) else None in
  let setup_times, inv =
    Util.repeated_setup ~times:(if trace then 1 else setups)
      ~setup:(fun () -> setup ?kv_probe path values)
      ~teardown:(fun h -> IF.close h; Sys.remove path)
  in
  let engine = Probes.phases () in
  let query i =
    if not (Spans.enabled ()) then E.query inv queries.(i)
    else begin
      let id = ref 0 and trace = Obs.Trace.create "query" in
      let r =
        Spans.with_span "containment.query" (fun () ->
            id := fst (Spans.current ());
            E.query ~trace inv queries.(i))
      in
      let root = Obs.Trace.finish trace in
      Probes.add_phases engine root;
      Probes.graft ~parent:!id root;
      r
    end
  in
  (* sequential queries for [seconds], the paper's workload in order, one
     piece of [piece_queries] queries at a time *)
  let pass seconds =
    let t_start = Util.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    let reps = ref [] and words = ref 0. and piece = ref 0 in
    Calib.reset ();
    while Util.now_ns () < deadline do
      Calib.keep_up ();
      let lat = ref [] in
      for i = !piece * piece_queries to ((!piece + 1) * piece_queries) - 1 do
        let w0 = Gc.minor_words () in
        let t0 = Util.now_ns () in
        let r = query i in
        let t1 = Util.now_ns () in
        words := !words +. (Gc.minor_words () -. w0);
        Tally.check tally (r.E.records = expected.(i));
        lat := Util.ms_between t0 t1 :: !lat
      done;
      reps :=
        { Bstats.piece = !piece; dur_ms = List.fold_left ( +. ) 0. !lat; ops_ms = !lat }
        :: !reps;
      piece := (!piece + 1) mod pieces
    done;
    { run = { Report.reps = !reps; t0 = t_start; t_end = Util.now_ns () }; words = !words }
  in
  ignore (pass warmup_s);
  let space_amp =
    float_of_int (Util.disk_bytes path) /. float_of_int (Util.literal_bytes values)
  in
  let metrics, workload_metrics =
    if not trace then begin
      let p = (pass seconds).run in
      let probe = Calib.pass_ms () in
      ( Report.end_to_end ~pieces ~probe_ms:(fst probe) ~setup_times ~space_amp
          ~rss_mb:(Util.peak_rss_mb ~baseline) p,
        Report.best_pass ~pieces ~probe p
        @ Report.best_op_p50 ~pieces p
        :: Report.op_stats "query" ~qps:true p
        @ [ Report.error_rate tally ] )
    end
    else begin
      let kv = Option.get kv_probe in
      let half = seconds /. 2. in
      let plain = pass half in
      Spans.enable ();
      let lk0 = Storage.Io_stats.(let l = IF.lookup_stats inv in (lookups l, hits l)) in
      let traced = pass half in
      Spans.disable ();
      let lookups, hits =
        Storage.Io_stats.(let l = IF.lookup_stats inv in (lookups l - fst lk0, hits l - snd lk0))
      in
      let spans = Spans.all () in
      Spans.adopt
        ~who:(fun s -> Spans.layer_of s.Spans.name = "storage")
        ~into:(fun s -> s.Spans.name <> "containment.query")
        spans;
      Spans.propagate_requests spans;
      Spans.write (Util.trace_path ~workload:"scan-cold") spans;
      let n = Report.count traced.run in
      let q = float_of_int (max 1 n) in
      let postings, payload = Probes.plan_means inv queries in
      ( [
          Report.m "containment.retrieve_ms" "ms" (Probes.phase_ms engine "retrieve" /. q);
          Report.m "containment.eval_ms" "ms" (Probes.phase_ms engine "eval" /. q);
          Report.m "containment.verify_ms" "ms" (Probes.phase_ms engine "verify" /. q);
          Report.m "containment.minor_words_per_query" "words"
            (plain.words /. float_of_int (max 1 (Report.count plain.run)))
            ~note:"untraced half";
          Report.m "containment.results_per_candidate" "ratio"
            (float_of_int engine.results /. float_of_int (max 1 engine.candidates));
          Report.m "invfile.lookups_per_query" "count" (float_of_int lookups /. q);
          Report.m "invfile.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 lookups));
          Report.m "invfile.postings_per_query" "count" postings ~note:"mean over the query set";
          Report.m "invfile.payload_bytes_per_query" "bytes" payload ~note:"mean over the query set";
          Report.m "storage.gets_per_query" "count" (float_of_int kv.gets /. q);
          Report.m "storage.get_us_per_query" "us" (float_of_int kv.get_ns /. 1e3 /. q);
          Report.m "storage.bytes_read_per_query" "bytes" (float_of_int kv.get_bytes /. q);
          Report.overhead ~pieces ~plain:plain.run traced.run;
        ]
        @ Report.self_times ~ops:n spans,
        [] )
    end
  in
  IF.close inv;
  Util.rm_rf dir;
  {
    Report.workload = "scan-cold";
    seed;
    trace;
    attempted = tally.Tally.attempted;
    failed = Tally.bad tally;
    correct = tally.Tally.wrong = 0;
    workload_metrics;
    metrics;
  }
