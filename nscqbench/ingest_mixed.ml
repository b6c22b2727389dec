(* ingest-mixed: inserts beside queries on a live store preloaded through
   Live_store.insert (the `nscq build --live` path). A round starts from a
   copy of the preloaded store and runs [round_steps] steps: insert a
   fresh record, then run the next query of the preload's query set, so
   every query sees the writes before it. Every round inserts the same
   records and runs the same queries, and the flushes and compaction
   steps it triggers fall inside its timed steps, so a round's time
   carries the write path's maintenance as well as its inserts. WAL fsync
   is off (fsync times on a small VM vary 2x from run to run); flush and
   compaction thresholds are small enough that every round flushes four
   times and compacts. The write path dominates: the workload for live
   and storage write changes.

   The session runs in-process and sequentially. Over the wire, with an
   open-loop writer beside closed-loop readers, every reply waits on
   cross-domain wake-ups whose cost on a small VM varies 2x from run to
   run, which buried the write path's own cost. *)

module LS = Live.Live_store
module E = Containment.Engine

let preload = 1_500
let distinct_queries = 200
let round_steps = 1_024
(* a round is timed in pieces of one flush cycle, a few tenths of a
   second each *)
let piece_steps = 256
let pieces = round_steps / piece_steps
let setups = 9
let warmup_s = 0.5

let max_segments = 6

(* Compaction is run by the session itself, one leveled step whenever a
   flush leaves more than [max_segments] segments: the background
   compactor's timing differs from run to run, and with it every later
   step's cost. *)
let live_config wrap =
  { LS.flush_records = 256; max_segments = 0; auto_compact = false; wal_sync = false; wrap }

(* Wide records cut at depth 3 hold about 14 atoms and at most ~170. At
   the default depth sizes are heavy-tailed (up to ~1500 atoms), and the
   mean size of 2500 records, and with it a round's cost, moves by ±9%
   from seed to seed; cut at depth 3 it moves by ±2.5%. *)
let wide_gen seed =
  Datagen.Synthetic.make ~seed
    ~params:(Datagen.Synthetic.params_of_shape ~max_depth:3 Datagen.Synthetic.Wide)
    (Datagen.Synthetic.Zipfian 0.7)

let wrap_with kv_probe _ kv =
  match kv_probe with Some p -> Probes.wrap_kv p kv | None -> kv

let setup ?kv_probe dir values =
  let store = LS.create ~config:(live_config (wrap_with kv_probe)) dir in
  Array.iter (fun v -> ignore (LS.insert store v)) values;
  store

type pass = {
  steps : Report.pass;  (** one insert and its query *)
  inserts : Report.pass;
  queries : Report.pass;
  insert_us : float list;  (** traced passes: the insert call alone *)
  flushes : int;
  compactions : int;
}

(* Flush and compaction intervals from the flight recorder's begin/end
   events, as (domain, start µs, end µs). *)
let recorder_intervals ~since_us =
  let open Obs.Recorder in
  let flush = ref [] and compact = ref [] and open_ = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if Int64.compare e.time_us since_us >= 0 then
        match e.kind with
        | Flush_begin | Compact_begin -> Hashtbl.replace open_ (e.domain, e.kind) e.time_us
        | Flush_end | Compact_end -> (
          let b = if e.kind = Flush_end then Flush_begin else Compact_begin in
          match Hashtbl.find_opt open_ (e.domain, b) with
          | Some t0 ->
            Hashtbl.remove open_ (e.domain, b);
            let span = (e.domain, t0, e.time_us) in
            if e.kind = Flush_end then flush := span :: !flush else compact := span :: !compact
          | None -> ())
        | _ -> ())
    (events ());
  (!flush, !compact)

let run ~seed ~seconds ~trace =
  let values =
    let g = wide_gen seed in
    Array.init preload (fun _ -> Datagen.Synthetic.value g)
  in
  (* the records every round inserts: a disjoint stream of the same shape *)
  let fresh =
    let g = wide_gen (seed + 0x1000) in
    Array.init round_steps (fun _ -> Datagen.Synthetic.value g)
  in
  let fresh_bytes =
    Array.fold_left (fun a v -> a + String.length (Nested.Value.to_string v)) 0 fresh
  in
  let queries = Oracle.paper_queries ~seed ~count:distinct_queries values in
  (* the query each step of a round runs: the query set in turn *)
  let picks = Array.init round_steps (fun k -> k mod distinct_queries) in
  let expected = Array.map (Oracle.answer (Oracle.create values)) queries in
  let tally = Tally.create () in
  (* ids an answer held beyond the preload's: checked against the final
     store once the run is over (every round inserts the same records
     under the same ids) *)
  let extras = Array.make (Array.length queries) [] in
  let root = Util.work_dir () in
  let snapshot = Filename.concat root "preload.live" in
  let dir = Filename.concat root "store.live" in
  if trace then Obs.Recorder.configure ~slots:(1 lsl 17);
  Obs.Recorder.enable ();
  let baseline = Util.rss_baseline () in
  let kv_probe = if trace then Some (Probes.kv ()) else None in
  let setup_times, preloaded =
    Util.repeated_setup ~times:(if trace then 1 else setups)
      ~setup:(fun () -> setup ?kv_probe snapshot values)
      ~teardown:(fun s -> LS.close s; Util.rm_rf snapshot)
  in
  (* the preloaded store is the snapshot every round starts from *)
  LS.close preloaded;
  let store = ref None and acked = ref [] in
  let timed name f = if Spans.enabled () then Spans.with_span name f else f () in
  (* One round on a fresh copy of the snapshot. Copying and opening it
     are not timed; each step's insert and query are. *)
  let round () =
    Option.iter LS.close !store;
    Util.rm_rf dir;
    Util.copy_tree snapshot dir;
    let s = LS.open_store ~config:(live_config (wrap_with kv_probe)) dir in
    store := Some s;
    Calib.keep_up ();
    let out =
      Array.mapi
        (fun k v ->
          let t0 = Util.now_ns () in
          let id =
            timed "live.insert" (fun () ->
                let id = LS.insert s v in
                if LS.segment_count s > max_segments then ignore (LS.compact s);
                id)
          in
          let t1 = Util.now_ns () in
          let ids = timed "live.query" (fun () -> LS.query s queries.(picks.(k))) in
          (id, ids, t0, t1, Util.now_ns ()))
        fresh
    in
    (* bookkeeping and checks stay outside the timed steps *)
    let totals = LS.totals s in
    acked := [];
    Array.iteri
      (fun k (id, ids, _, _, _) ->
        Tally.ok tally;
        acked := (id, fresh.(k)) :: !acked;
        let i = picks.(k) in
        let old, extra = List.partition (fun id -> id < preload) ids in
        extras.(i) <- List.sort_uniq Int.compare (extra @ extras.(i));
        Tally.check tally (old = expected.(i)))
      out;
    (* piece p: steps [p * piece_steps, (p + 1) * piece_steps) of the round *)
    let reps f =
      List.init pieces (fun piece ->
          let ops_ms = Array.to_list (Array.map f (Array.sub out (piece * piece_steps) piece_steps)) in
          { Bstats.piece; dur_ms = List.fold_left ( +. ) 0. ops_ms; ops_ms })
    in
    ( ( reps (fun (_, _, t0, _, t2) -> Util.ms_between t0 t2),
        reps (fun (_, _, t0, t1, _) -> Util.ms_between t0 t1),
        reps (fun (_, _, _, t1, t2) -> Util.ms_between t1 t2) ),
      (List.assoc "flushes_total" totals, List.assoc "compactions_total" totals) )
  in
  let pass seconds =
    let t_start = Util.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    let rounds = ref [] in
    Calib.reset ();
    while Util.now_ns () < deadline do
      rounds := round () :: !rounds
    done;
    let t_end = Util.now_ns () in
    let reps f = { Report.reps = List.concat_map (fun (r, _) -> f r) !rounds; t0 = t_start; t_end } in
    let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 !rounds in
    let traced_us =
      List.concat_map (fun ((_, i, _), _) -> List.concat_map (fun r -> r.Bstats.ops_ms) i) !rounds
    in
    {
      steps = reps (fun (s, _, _) -> s);
      inserts = reps (fun (_, i, _) -> i);
      queries = reps (fun (_, _, q) -> q);
      insert_us = (if Spans.enabled () then List.map (fun ms -> ms *. 1e3) traced_us else []);
      flushes = sum fst;
      compactions = sum snd;
    }
  in
  ignore (pass warmup_s);
  let metrics, workload_metrics =
    if not trace then begin
      let p = pass seconds in
      let probe = Calib.pass_ms () in
      let rss_mb = Util.peak_rss_mb ~baseline in
      (* after a final flush and full compaction, so the figure does not
         depend on where in its flush cycle the last round stopped *)
      let s = Option.get !store in
      ignore (LS.flush s);
      ignore (LS.compact ~all:true s);
      let space_amp =
        float_of_int (Util.disk_bytes dir)
        /. float_of_int
             (LS.fold_live s ~init:0 ~f:(fun acc _ v ->
                  acc + String.length (Nested.Value.to_string v)))
      in
      let rounds = List.length p.steps.reps / pieces in
      ( Report.end_to_end ~pieces ~probe_ms:(fst probe) ~setup_times ~space_amp ~rss_mb p.steps,
        Report.best_pass ~pieces ~probe p.steps
        @ Report.best_op_p50 ~pieces p.steps
        :: Report.op_stats "step" ~qps:true p.steps
        @ Report.op_stats "insert" p.inserts
        @ Report.op_stats "query" p.queries
        @ [
            Report.m "flushes_per_round" "count"
              (float_of_int p.flushes /. float_of_int rounds);
            Report.m "compactions_per_round" "count"
              (float_of_int p.compactions /. float_of_int rounds);
            Report.error_rate tally;
          ] )
    end
    else begin
      let kv = Option.get kv_probe in
      let half = seconds /. 2. in
      let plain = pass half in
      Spans.enable ();
      let since_us = Int64.of_float (Unix.gettimeofday () *. 1e6) in
      let segments =
        Loadgen.sampler ~period_s:0.005 (fun () ->
            match !store with Some s -> LS.segment_count s | None -> 0)
      in
      let traced = pass half in
      let segments = segments () in
      Spans.disable ();
      let flushes, compactions = recorder_intervals ~since_us in
      (* flight-recorder intervals become spans, so the storage calls they
         made are attributed to them *)
      let offset =
        Util.now_ns () - Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))
      in
      let as_span name (dom, t0, t1) =
        ignore
          (Spans.record ~dom ~name
             ~start_ns:(Int64.to_int (Int64.mul t0 1000L) + offset)
             ~stop_ns:(Int64.to_int (Int64.mul t1 1000L) + offset)
             ())
      in
      List.iter (as_span "live.flush") flushes;
      List.iter (as_span "live.compact") compactions;
      let spans = Spans.all () in
      let maintenance s = s.Spans.name = "live.flush" || s.Spans.name = "live.compact" in
      Spans.adopt ~who:maintenance ~into:(fun s -> s.Spans.name = "live.insert") spans;
      Spans.adopt ~who:(fun s -> Spans.layer_of s.Spans.name = "storage") ~into:maintenance spans;
      Spans.propagate_requests spans;
      Spans.write (Util.trace_path ~workload:"ingest-mixed") spans;
      let ms_of (_, t0, t1) = Int64.to_float (Int64.sub t1 t0) /. 1e3 in
      let user_bytes = fresh_bytes * List.length traced.steps.reps / pieces in
      ( [
          Report.m "storage.write_amp" "ratio"
            (float_of_int kv.put_bytes /. float_of_int (max 1 user_bytes))
            ~note:"bytes put / literal bytes inserted";
          Report.m ~n:kv.syncs "storage.syncs" "count" (float_of_int kv.syncs);
          Report.pctl "storage.sync_ms_p99" "ms" 99 kv.sync_ms;
          Report.pctl "live.insert_us_p50" "us" 50 traced.insert_us;
          Report.pctl "live.insert_us_p99" "us" 99 traced.insert_us;
          Report.m "live.flushes" "count" (float_of_int traced.flushes);
          Report.m "live.compactions" "count" (float_of_int traced.compactions);
          (match flushes with
          | [] -> Report.unavailable "live.flush_ms_p50" "ms" "no flush in the traced half"
          | l -> Report.pctl "live.flush_ms_p50" "ms" 50 (List.map ms_of l));
          (match compactions with
          | [] -> Report.unavailable "live.compact_ms_p50" "ms" "no compaction in the traced half"
          | l -> Report.pctl "live.compact_ms_p50" "ms" 50 (List.map ms_of l));
          Report.m ~n:(List.length segments) "live.segments_mean" "count"
            (Bstats.mean (List.map float_of_int segments));
          Report.overhead ~pieces ~plain:plain.steps traced.steps;
        ]
        @ Report.self_times ~ops:(Report.count traced.steps) spans,
        [] )
    end
  in
  Option.iter LS.close !store;
  Obs.Recorder.disable ();
  (* durability and answers after the run, on a fresh open of the last
     round's store *)
  let post_failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> post_failures := s :: !post_failures) fmt in
  let store = LS.open_store ~config:(live_config (fun _ kv -> kv)) dir in
  List.iter
    (fun (id, v) ->
      match LS.record_value store id with
      | Some v' when Nested.Value.equal v v' -> ()
      | _ -> fail "acknowledged record %d lost or changed" id)
    !acked;
  List.iter (fun (what, detail) -> fail "verify: %s: %s" what detail) (LS.verify store);
  let gids, live_values =
    LS.fold_live store ~init:([], []) ~f:(fun (g, v) id value -> (id :: g, value :: v))
  in
  let gids = Array.of_list (List.rev gids) in
  let rebuilt = Containment.Collection.of_values (List.rev live_values) in
  Array.iteri
    (fun i q ->
      let want = List.map (fun r -> gids.(r)) (E.query rebuilt q).E.records in
      if LS.query store q <> want then fail "query %d differs from the rebuild oracle" i;
      if not (List.for_all (fun id -> List.mem id want) extras.(i)) then
        fail "query %d answered ids that do not contain it" i)
    queries;
  LS.close store;
  Util.rm_rf root;
  List.iter (fun s -> Printf.printf "post-run check failed: %s\n" s) (List.rev !post_failures);
  {
    Report.workload = "ingest-mixed";
    seed;
    trace;
    attempted = tally.Tally.attempted;
    failed = Tally.bad tally + List.length !post_failures;
    correct = tally.Tally.wrong = 0 && !post_failures = [];
    workload_metrics;
    metrics;
  }
