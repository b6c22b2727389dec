(* One run's results: the human-readable table and the final JSON line. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** samples behind the value (0 = a count or ratio) *)
  note : string;  (** how it was derived, or why it is unavailable *)
}

let m ?(n = 0) ?(note = "") name unit_ value = { name; value; unit_; n; note }

(* A metric the workload cannot produce: reported as 0 with the reason. *)
let unavailable name unit_ why = { name; value = 0.; unit_; n = 0; note = "unavailable: " ^ why }
let is_unavailable m = String.starts_with ~prefix:"unavailable: " m.note

(* [pct]-th percentile of raw samples. A median needs one sample; any
   higher percentile is unavailable unless {!Bstats.min_beyond} samples
   lie beyond it. *)
let pctl name unit_ pct samples =
  let a = Bstats.sorted samples in
  let n = Array.length a in
  match if pct = 50 && n > 0 then Some (Bstats.percentile a 50) else Bstats.tail a pct with
  | Some v -> m ~n name unit_ v
  | None ->
    unavailable name unit_
      (Printf.sprintf "%d sample(s); p%d needs %d beyond it" n pct Bstats.min_beyond)

(* A measured pass: every timed repetition of the workload's pieces,
   between [t0] and [t_end] on the monotonic clock. A workload's fixed
   unit of work is split into [pieces] pieces of a few tenths of a
   second each, and the pass repeats them in turn until its time is up. *)
type pass = { reps : Bstats.rep list; t0 : int; t_end : int }

let latencies p = List.concat_map (fun r -> r.Bstats.ops_ms) p.reps
let count p = List.fold_left (fun a r -> a + List.length r.Bstats.ops_ms) 0 p.reps
let rate p = float_of_int (count p) /. Util.seconds_between p.t0 p.t_end

(* The fastest repetition of each piece, or [None] when some piece never
   finished a repetition. *)
let best ~pieces p =
  let b = Bstats.best_reps p.reps in
  if List.length b = pieces then Some b else None

(* The workload's whole unit of work at its least disturbed: the sum of
   each piece's fastest repetition. *)
let best_pass_ms ~pieces p =
  Option.map (List.fold_left (fun a r -> a +. r.Bstats.dur_ms) 0.) (best ~pieces p)

let no_pass pieces = Printf.sprintf "a piece of the %d never finished a repetition" pieces

(* The best pass in ms, and the calibration probe's time in the same
   pass ([probe] is its time in ms and the number of probes), printed
   beside the gated ratio of the two. *)
let best_pass ~pieces ~probe:(probe_ms, probes) p =
  [
    (match best_pass_ms ~pieces p with
    | Some v ->
      m ~n:(List.length p.reps) "best_pass_ms" "ms" v
        ~note:(Printf.sprintf "sum of the fastest repetition of each of %d piece(s)" pieces)
    | None -> unavailable "best_pass_ms" "ms" (no_pass pieces));
    m ~n:probes "probe_ms" "ms" probe_ms ~note:"calibration probe, 10th percentile";
  ]

(* The end-to-end metrics, the same for every workload. The best pass is
   gated as a multiple of the calibration probe timed between the same
   pass's pieces ({!Calib}), which cancels the host's drift in speed. *)
let end_to_end ~pieces ~probe_ms ~setup_times ~space_amp ~rss_mb p =
  [
    m ~n:(List.length setup_times) "setup_s" "s" (Bstats.median setup_times)
      ~note:"median of repeated set-ups";
    (match best_pass_ms ~pieces p with
    | Some v ->
      m ~n:(List.length p.reps) "best_pass_per_probe" "ratio" (v /. probe_ms)
        ~note:"best pass / calibration probe"
    | None -> unavailable "best_pass_per_probe" "ratio" (no_pass pieces));
    m "space_amp" "ratio" space_amp ~note:"bytes on disk / literal bytes";
    m "peak_rss_mb" "MiB" rss_mb ~note:"peak resident set above the inputs and oracles";
  ]

(* The median op latency within the fastest repetitions of the pieces. *)
let best_op_p50 ~pieces p =
  match best ~pieces p with
  | Some b ->
    let ops = List.concat_map (fun r -> r.Bstats.ops_ms) b in
    m ~n:(List.length ops) "best_op_p50_ms" "ms" (Bstats.percentile (Bstats.sorted ops) 50)
      ~note:"median op latency in the fastest repetitions"
  | None -> unavailable "best_op_p50_ms" "ms" (no_pass pieces)

(* Conventional statistics of one operation type over the whole pass,
   by the workload's own names: [<what>_p50_ms], [<what>_p99_ms] and,
   for closed loops, [<what>_qps]. *)
let op_stats ?(qps = false) what p =
  let n = count p in
  [
    pctl (what ^ "_p50_ms") "ms" 50 (latencies p);
    pctl (what ^ "_p99_ms") "ms" 99 (latencies p);
  ]
  @ if qps then [ m ~n (what ^ "_qps") "1/s" (rate p) ] else []

(* The traced half's best pass against the untraced half's. *)
let overhead ~pieces ~plain traced =
  match (best_pass_ms ~pieces plain, best_pass_ms ~pieces traced) with
  | Some a, Some b -> m ~n:(count traced) "trace.overhead_frac" "ratio" ((b -. a) /. a)
  | _ -> unavailable "trace.overhead_frac" "ratio" "a half finished no whole pass"

(* Self time per operation of every measured layer that recorded spans. *)
let layers = [ "server"; "containment"; "invfile"; "storage"; "live"; "join" ]

let self_times ~ops spans =
  List.filter_map
    (fun (layer, ns) ->
      if List.mem layer layers then
        Some
          (m ~n:ops (layer ^ ".self_ms_per_op") "ms"
             (float_of_int ns /. 1e6 /. float_of_int (max 1 ops)))
      else None)
    (Spans.self_by_layer spans)

let error_rate tally =
  m ~n:tally.Tally.attempted "error_rate" "ratio" (Tally.error_rate tally)
    ~note:"(failed + refused + wrong) / attempted"

(* Seed kept out of all tuning of this benchmark, so a later claim can be
   rechecked on inputs nobody tuned against. *)
let recheck_seed = 20_131_118

type t = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  correct : bool;
  workload_metrics : metric list;  (** printed only, by their per-workload names *)
  metrics : metric list;  (** the JSON metrics *)
}

let print_metric m =
  Printf.printf "  %-34s %14.6g %-6s%s%s\n" m.name m.value m.unit_
    (if m.n > 0 then Printf.sprintf "  n=%d" m.n else "")
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_float: not a finite number"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let emit r =
  Printf.printf "workload %s  seed %d  (recheck on seed %d)  %s run\n" r.workload
    r.seed recheck_seed (if r.trace then "traced" else "untraced");
  if r.workload_metrics <> [] then begin
    print_endline " metrics of this workload:";
    List.iter print_metric r.workload_metrics
  end;
  Printf.printf " %s:\n" (if r.trace then "per-layer metrics" else "benchmark metrics");
  List.iter print_metric r.metrics;
  Printf.printf " attempted %d, failed %d, oracle %s\n" r.attempted r.failed
    (if r.correct then "ok" else "MISMATCH");
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " fields)
