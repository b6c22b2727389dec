(* join-batch: repeated Join.Engine.join of Datagen.Paired outer
   collections against an indexed inner collection, in the regime of the
   join-scaling experiment (containment selectivity 0.3, Zipf 0.7, label
   pool of inner/16) with the paper's static cache of 250 lists. The only
   workload that exercises lib/join, the layer join planning changes.

   The outer side is a pool of [chunks] batches of [outer] sets, joined
   in turn: a few outer sets with huge candidate lists can double one
   join's cost, so timing a single batch would measure which seed drew
   them rather than the join. *)

module IF = Invfile.Inverted_file

let inner = 4_000
let outer = 100
let chunks = 20
let setups = 9
let warmup_s = 0.5

let setup ?kv_probe path values =
  let b = Invfile.Builder.create (Storage.Hash_store.create path) in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) values;
  IF.close (Invfile.Builder.finish b);
  let kv = Storage.Hash_store.open_existing path in
  let inv = IF.open_store (match kv_probe with Some p -> Probes.wrap_kv p kv | None -> kv) in
  Containment.Collection.with_static_cache inv ~budget:250;
  inv

type pass = { run : Report.pass; stats : Join.Engine.stats list }

let run ~seed ~seconds ~trace =
  let w =
    Datagen.Paired.make ~seed
      ~pool:(Datagen.Label_pool.create (inner / 16))
      ~label_dist:(Datagen.Synthetic.Zipfian 0.7) ~selectivity:0.3 ~inner
      ~outer:(outer * chunks) ()
  in
  let batches =
    let all = Array.of_list (Datagen.Workload.values w.Datagen.Paired.outer) in
    Array.init chunks (fun c -> Array.to_list (Array.sub all (c * outer) outer))
  in
  let tally = Tally.create () in
  let dir = Util.work_dir () in
  let path = Filename.concat dir "inner.tch" in
  (* the oracle: the per-query engine loop, on a store of its own built
     before the measured one, so its lookups do not warm or count against
     the measured handle and its memory is part of the baseline *)
  let expected =
    let opath = Filename.concat dir "oracle.tch" in
    let b = Invfile.Builder.create (Storage.Hash_store.create opath) in
    List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) w.Datagen.Paired.inner;
    let h = Invfile.Builder.finish b in
    Fun.protect
      ~finally:(fun () -> IF.close h; Sys.remove opath)
      (fun () -> Array.map (Join.Engine.naive h) batches)
  in
  let baseline = Util.rss_baseline () in
  let kv_probe = if trace then Some (Probes.kv ()) else None in
  let setup_times, inv =
    Util.repeated_setup ~times:(if trace then 1 else setups)
      ~setup:(fun () -> setup ?kv_probe path w.Datagen.Paired.inner)
      ~teardown:(fun h -> IF.close h; Sys.remove path)
  in
  let join outers =
    if not (Spans.enabled ()) then Join.Engine.join inv outers
    else begin
      let id = ref 0 and trace = Obs.Trace.create "join" in
      let r =
        Spans.with_span "join.join" (fun () ->
            id := fst (Spans.current ());
            Join.Engine.join ~trace inv outers)
      in
      Probes.graft ~join:true ~parent:!id (Obs.Trace.finish trace);
      r
    end
  in
  (* every batch is a piece of its own, joined in turn: the best pass
     sums each batch's fastest join, so one disturbed join costs only
     its own batch a repetition, not the whole pool *)
  let pass seconds =
    let t_start = Util.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    let reps = ref [] and stats = ref [] in
    Calib.reset ();
    while Util.now_ns () < deadline do
      Array.iteri
        (fun c outers ->
          Calib.keep_up ();
          let t0 = Util.now_ns () in
          let r = join outers in
          let t1 = Util.now_ns () in
          Tally.check tally (r.Join.Engine.pairs = expected.(c));
          stats := r.Join.Engine.stats :: !stats;
          let ms = Util.ms_between t0 t1 in
          reps := { Bstats.piece = c; dur_ms = ms; ops_ms = [ ms ] } :: !reps)
        batches
    done;
    { run = { Report.reps = !reps; t0 = t_start; t_end = Util.now_ns () }; stats = !stats }
  in
  ignore (pass warmup_s);
  let space_amp =
    float_of_int (Util.disk_bytes path)
    /. float_of_int (Util.literal_bytes (Array.of_list w.Datagen.Paired.inner))
  in
  let metrics, workload_metrics =
    if not trace then begin
      let p = (pass seconds).run in
      let probe = Calib.pass_ms () in
      ( Report.end_to_end ~pieces:chunks ~probe_ms:(fst probe) ~setup_times ~space_amp
          ~rss_mb:(Util.peak_rss_mb ~baseline) p,
        Report.best_pass ~pieces:chunks ~probe p
        @ [
          Report.best_op_p50 ~pieces:chunks p;
          Report.m ~n:(Report.count p) "join_s" "s" (Bstats.median (Report.latencies p) /. 1e3)
            ~note:(Printf.sprintf "median of one full %dx%d join" outer inner);
          Report.m ~n:(Report.count p) "join_pool_s" "s"
            (float_of_int chunks *. Bstats.mean (Report.latencies p) /. 1e3)
            ~note:(Printf.sprintf "mean time to join all %d batches" chunks);
          Report.error_rate tally;
        ] )
    end
    else begin
      let kv = Option.get kv_probe in
      let half = seconds /. 2. in
      let plain = pass half in
      Spans.enable ();
      let traced = pass half in
      Spans.disable ();
      let spans = Spans.all () in
      Spans.adopt
        ~who:(fun s -> Spans.layer_of s.Spans.name = "storage")
        ~into:(fun s -> s.Spans.name <> "join.join")
        spans;
      Spans.propagate_requests spans;
      Spans.write (Util.trace_path ~workload:"join-batch") spans;
      let per_join f =
        Bstats.mean (List.map (fun s -> float_of_int (f s)) traced.stats)
      in
      let open Join.Engine in
      let n = Report.count traced.run in
      let q = float_of_int (max 1 (n * outer)) in
      ( [
          Report.m "join.nodes_expanded" "count" (per_join (fun s -> s.nodes_expanded));
          Report.m "join.intersections_shared" "count" (per_join (fun s -> s.intersections_shared));
          Report.m "join.intersections_recomputed" "count"
            (per_join (fun s -> s.intersections_recomputed));
          Report.m "join.limit_cuts" "count" (per_join (fun s -> s.limit_cuts));
          Report.m "join.fallback" "count" (per_join (fun s -> s.fallback));
          Report.m "join.candidates_checked" "count" (per_join (fun s -> s.candidates_checked));
          Report.m "join.pairs_per_candidate" "ratio"
            (per_join (fun s -> s.pairs) /. Float.max 1. (per_join (fun s -> s.candidates_checked)));
          Report.m "storage.gets_per_query" "count" (float_of_int kv.gets /. q)
            ~note:"per outer set";
          Report.m "storage.get_us_per_query" "us" (float_of_int kv.get_ns /. 1e3 /. q)
            ~note:"per outer set";
          Report.m "storage.bytes_read_per_query" "bytes" (float_of_int kv.get_bytes /. q)
            ~note:"per outer set";
          Report.overhead ~pieces:chunks ~plain:plain.run traced.run;
        ]
        @ Report.self_times ~ops:n spans,
        [] )
    end
  in
  IF.close inv;
  Util.rm_rf dir;
  {
    Report.workload = "join-batch";
    seed;
    trace;
    attempted = tally.Tally.attempted;
    failed = Tally.bad tally;
    correct = tally.Tally.wrong = 0;
    workload_metrics;
    metrics;
  }
