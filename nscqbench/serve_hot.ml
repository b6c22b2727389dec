(* serve-hot: an in-process server with the `nscq serve` defaults (static
   cache of the paper's 250 lists, flight recorder on, default admission
   queue and batch size), one worker domain, serving Zipf-0.7 wide
   synthetic records from an on-disk hash store to two closed-loop
   clients that share out rounds over every paper-style query. Hot lists
   are cached, so the wire / admission / batching path is a visible
   share of each reply: the workload for server and cache-hit-path
   changes. *)

module IF = Invfile.Inverted_file

let records = 16_000
let distinct_queries = 2_000
let clients = 2
(* a round over the query set is timed in pieces of 500 queries, about
   a tenth of a second each *)
let pieces = 4
let setups = 5
let warmup_s = 1.0

let config =
  { Server.Service.default_config with Server.Service.port = 0; domains = 1 }

let generate seed =
  Array.of_seq
    (Datagen.Synthetic.seq
       (Datagen.Synthetic.make ~seed
          ~params:(Datagen.Synthetic.params_of_shape Datagen.Synthetic.Wide)
          (Datagen.Synthetic.Zipfian 0.7))
       records)

let build path values =
  let b = Invfile.Builder.create (Storage.Hash_store.create path) in
  Array.iter (fun v -> ignore (Invfile.Builder.add_value b v)) values;
  IF.close (Invfile.Builder.finish b)

type probes = { kv : Probes.kv; backend : Probes.backend; inv : IF.t option ref }

(* Starts the server and waits until its worker has opened the store and
   attached (and preloaded) its cache. *)
let start ?probes path =
  let ready = Atomic.make false in
  let open_backend () =
    let kv = Storage.Hash_store.open_existing path in
    let b =
      match probes with
      | None ->
        Server.Dispatch.store_backend ~cache_budget:config.cache_budget
          ~open_handle:(fun () -> IF.open_store kv) ()
      | Some p ->
        let open_handle () =
          let inv = IF.open_store (Probes.wrap_kv p.kv kv) in
          p.inv := Some inv;
          inv
        in
        Probes.wrap_backend p.backend
          (Server.Dispatch.store_backend ~cache_budget:config.cache_budget
             ~open_handle ())
    in
    Atomic.set ready true;
    b
  in
  let srv = Server.Service.start_with config ~open_backend in
  Util.wait_until (fun () -> Atomic.get ready);
  srv

let run ~seed ~seconds ~trace =
  let values = generate seed in
  let queries = Oracle.paper_queries ~seed ~count:distinct_queries values in
  let oracle = Oracle.create values in
  let texts = Array.map Nested.Value.to_string queries in
  let expected = Array.map (fun q -> Oracle.payload (Oracle.answer oracle q)) queries in
  let tally = Tally.create () in
  let check i payload = String.equal payload expected.(i) in
  let baseline = Util.rss_baseline () in
  let dir = Util.work_dir () in
  let path = Filename.concat dir "serve.tch" in
  Obs.Recorder.enable ();
  let probes =
    if trace then Some { kv = Probes.kv (); backend = Probes.backend (); inv = ref None }
    else None
  in
  let setup_times, srv =
    Util.repeated_setup ~times:(if trace then 1 else setups)
      ~setup:(fun () -> build path values; start ?probes path)
      ~teardown:(fun s -> Server.Service.stop s; Sys.remove path)
  in
  let port = Server.Service.port srv in
  let load seconds =
    Loadgen.closed_loop ~port ~clients ~pieces ~seconds ~texts ~check ~tally
  in
  ignore (load warmup_s);
  let space_amp =
    float_of_int (Util.disk_bytes path) /. float_of_int (Util.literal_bytes values)
  in
  let metrics, workload_metrics =
    if not trace then begin
      let p = (load seconds).Loadgen.run in
      let probe = Calib.pass_ms () in
      ( Report.end_to_end ~pieces ~probe_ms:(fst probe) ~setup_times ~space_amp
          ~rss_mb:(Util.peak_rss_mb ~baseline) p,
        Report.best_pass ~pieces ~probe p
        @ Report.best_op_p50 ~pieces p
        :: Report.op_stats "query" ~qps:true p
        @ [ Report.error_rate tally ] )
    end
    else begin
      let p = Option.get probes in
      let half = seconds /. 2. in
      let plain = load half in
      Spans.enable ();
      let depth = Loadgen.sampler ~period_s:0.002 (fun () -> Server.Service.queue_depth srv) in
      let overloaded0 = Server.Server_stats.overloaded (Server.Service.stats srv) in
      let lk0 =
        let l = IF.lookup_stats (Option.get !(p.inv)) in
        Storage.Io_stats.(lookups l, hits l)
      in
      let traced = load half in
      let depths = depth () in
      Spans.disable ();
      let inv = Option.get !(p.inv) in
      let overloaded =
        Server.Server_stats.overloaded (Server.Service.stats srv) - overloaded0
      in
      let lookups, hits =
        let l = IF.lookup_stats inv in
        Storage.Io_stats.(lookups l - fst lk0, hits l - snd lk0)
      in
      Probes.link ~requests:traced.requests ~calls:p.backend.calls;
      let spans = Spans.all () in
      Spans.adopt
        ~who:(fun s -> Spans.layer_of s.Spans.name = "storage")
        ~into:(fun s ->
          let l = Spans.layer_of s.Spans.name in
          l = "invfile" || (l = "containment" && s.Spans.name <> "containment.batch"))
        spans;
      Spans.propagate_requests spans;
      let q = float_of_int (max 1 p.backend.literals) in
      let rtt_ns =
        List.fold_left (fun a (r : Probes.request) -> a + (r.r1 - r.r0)) 0 traced.requests
      in
      let server_self =
        List.assoc_opt "server" (Spans.self_by_layer spans) |> Option.value ~default:0
      in
      let postings, payload = Probes.plan_means inv queries in
      let done_ = Report.count traced.run in
      let e = p.backend.engine in
      Spans.write (Util.trace_path ~workload:"serve-hot") spans;
      ( [
          Report.m ~n:done_ "server.self_frac" "ratio"
            (float_of_int server_self /. float_of_int (max 1 rtt_ns));
          Report.pctl "server.exec_us_p50" "us" 50 p.backend.exec_us;
          Report.m "server.mean_batch" "count"
            (Bstats.mean (List.map float_of_int p.backend.batch_sizes));
          Report.m ~n:(List.length depths) "server.queue_depth_mean" "count"
            (Bstats.mean (List.map float_of_int depths));
          Report.m "server.overloaded" "count" (float_of_int overloaded);
          Report.m "containment.retrieve_ms" "ms"
            ((Probes.phase_ms e "retrieve" +. Probes.phase_ms e "prefetch") /. q)
            ~note:"retrieve + batch prefetch, per query";
          Report.m "containment.eval_ms" "ms" (Probes.phase_ms e "eval" /. q);
          Report.m "containment.verify_ms" "ms" (Probes.phase_ms e "verify" /. q);
          Report.m "containment.minor_words_per_query" "words"
            (p.backend.untraced_words /. float_of_int (max 1 p.backend.untraced_literals))
            ~note:"untraced half";
          Report.m "containment.results_per_candidate" "ratio"
            (float_of_int e.results /. float_of_int (max 1 e.candidates));
          Report.m "invfile.lookups_per_query" "count" (float_of_int lookups /. q);
          Report.m "invfile.hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 lookups));
          Report.m "invfile.postings_per_query" "count" postings ~note:"mean over the query set";
          Report.m "invfile.payload_bytes_per_query" "bytes" payload ~note:"mean over the query set";
          Report.m "storage.gets_per_query" "count" (float_of_int p.kv.gets /. q);
          Report.m "storage.get_us_per_query" "us" (float_of_int p.kv.get_ns /. 1e3 /. q);
          Report.m "storage.bytes_read_per_query" "bytes" (float_of_int p.kv.get_bytes /. q);
          Report.overhead ~pieces ~plain:plain.Loadgen.run traced.run;
        ]
        @ Report.self_times ~ops:done_ spans,
        [] )
    end
  in
  Server.Service.stop srv;
  Obs.Recorder.disable ();
  Util.rm_rf dir;
  {
    Report.workload = "serve-hot";
    seed;
    trace;
    attempted = tally.Tally.attempted;
    failed = Tally.bad tally;
    correct = tally.Tally.wrong = 0;
    workload_metrics;
    metrics;
  }
