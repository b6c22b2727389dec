(* Shared plumbing for the figure experiments: collection builders over a
   choice of backend, workload timing, table printing, and the gated
   ledger and A/B runner of the subsystem experiments E20-E27. *)

(* Console output is this program's purpose, and executables have no
   interface files: R2/R5 are opted out explicitly rather than scoped
   away, so the rest of the rules (R1 above all) still apply. *)
[@@@lint.allow io mli]

module E = Containment.Engine
module IF = Invfile.Inverted_file

type backend = Mem | Hash

let scratch_dir = Filename.concat (Filename.get_temp_dir_name ()) "nscq_bench"

let () = try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let scratch_path name = Filename.concat scratch_dir name

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

(* [time f] is [f ()] and the seconds it took, read from the monotonic
   clock: the one time source of the experiments. *)
let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

(* Builds an indexed collection from a value sequence. The on-disk hash
   store mirrors the paper's Tokyo Cabinet setting (no caching). *)
let build ?(backend = Hash) ~name (values : Nested.Value.t Seq.t) =
  let store, cleanup =
    match backend with
    | Mem -> (Storage.Mem_store.create (), fun () -> ())
    | Hash ->
      let path = scratch_path (name ^ ".tch") in
      remove_if_exists path;
      (Storage.Hash_store.create ~buckets:(1 lsl 16) path, fun () -> remove_if_exists path)
  in
  let builder = Invfile.Builder.create store in
  Seq.iter (fun v -> ignore (Invfile.Builder.add_value builder v)) values;
  let inv = Invfile.Builder.finish builder in
  (inv, fun () -> IF.close inv; cleanup ())

let with_collection ?backend ~name values f =
  let inv, cleanup = build ?backend ~name values in
  Fun.protect ~finally:cleanup (fun () -> f inv)

(* The paper's measurement: elapsed time of sequentially executing the
   whole benchmark workload; repeat, drop min and max, average the rest
   (Sec. 5.2 uses 10 runs and averages the middle 8). *)
let measure_workload ?(repeats = 5) ?(config = E.default) inv queries =
  let times =
    List.init repeats (fun _ ->
        let s = E.run_workload ~config inv queries in
        s.E.elapsed_s)
  in
  let sorted = List.sort Float.compare times in
  let trimmed =
    if repeats >= 3 then List.filteri (fun i _ -> i > 0 && i < repeats - 1) sorted
    else sorted
  in
  1000. *. List.fold_left ( +. ) 0. trimmed /. Float.of_int (List.length trimmed)

(* Exact quantile of an ascending array: the element at rank
   floor(q * n), clamped to the last; 0 for an empty array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* --- table printing (and optional CSV export for plotting) --- *)

let csv_dir : string option ref = ref None
let current_slug = ref "experiment"
let tables_under_slug = ref 0

let slugify title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    title
  |> fun s ->
  (* squeeze dashes *)
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c <> '-' || (Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-')
      then Buffer.add_char b c)
    s;
  Buffer.contents b

let print_header title explanation =
  current_slug := slugify title;
  tables_under_slug := 0;
  Printf.printf "\n=== %s ===\n" title;
  if explanation <> "" then Printf.printf "%s\n" explanation

let write_csv ~columns rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    (* a second table under one header gets its own file *)
    incr tables_under_slug;
    let suffix = if !tables_under_slug = 1 then "" else "-" ^ string_of_int !tables_under_slug in
    let path = Filename.concat dir (!current_slug ^ suffix ^ ".csv") in
    let oc = open_out path in
    let quote cell =
      if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
      else cell
    in
    let emit cells = output_string oc (String.concat "," (List.map quote cells) ^ "\n") in
    emit columns;
    List.iter emit rows;
    close_out oc

let print_table ~columns rows =
  write_csv ~columns rows;
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let ms v = Printf.sprintf "%.2f" v
let i = string_of_int

(* Workload queries per the paper: 100 selected records, half distorted. *)
let paper_queries ?(count = 100) inv =
  Datagen.Workload.values (Datagen.Workload.benchmark_queries ~seed:271 ~count inv)

(* --- the ledger: every number E20-E27 report, and their gates --- *)

type bound = At_most of float | At_least of float
type verdict = Pass | Fail | Error

(* A NaN never holds: a comparison that cannot be made fails its gate. *)
let holds bound v = match bound with At_most b -> v <= b | At_least b -> v >= b

let bound_name = function
  | At_most b -> Printf.sprintf "<= %g" b
  | At_least b -> Printf.sprintf ">= %g" b
let verdict_name = function Pass -> "pass" | Fail -> "fail" | Error -> "error"

type row = {
  experiment : string;
  row : string;
  metric : string;
  value : float;
  unit : string;
  bound : bound option;
  gate : verdict option;  (* [None]: reported, not gated *)
}

(* One number of a [report] row; [report] fills in its experiment and row. *)
let cell ?bound metric unit value =
  let gate = Option.map (fun b -> if holds b value then Pass else Fail) bound in
  { experiment = ""; row = ""; metric; value; unit; bound; gate }

let row_json r =
  let open Textformats.Json in
  Object
    [ ("experiment", String r.experiment); ("row", String r.row); ("metric", String r.metric);
      ("value", Number r.value);
      ("unit", String r.unit);
      ("gate", match r.gate with None -> Null | Some v -> String (verdict_name v)) ]

let write_ledger path rows =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun r -> output_string oc (Textformats.Json.to_string (row_json r) ^ "\n")) rows)

(* Non-zero as soon as one gate failed or one experiment raised. *)
let exit_status rows =
  if List.exists (fun r -> match r.gate with Some (Fail | Error) -> true | _ -> false) rows
  then 1
  else 0

let ledger_file = "BENCH_ledger.jsonl"
let ledger : row list ref = ref [] (* newest first *)
let experiment = ref ""

let show_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let show_gate r =
  let bound = Option.fold ~none:"" ~some:(fun b -> " " ^ bound_name b) r.bound in
  Option.fold ~none:"" ~some:(fun v -> Printf.sprintf " [%s%s]" (verdict_name v) bound) r.gate

(* Appends the rows' cells to the ledger and prints them as one table,
   a column per cell of the first row. *)
let report rows =
  let rows =
    List.map
      (fun (row, cells) ->
        (row, List.map (fun c -> { c with experiment = !experiment; row }) cells))
      rows
  in
  List.iter (fun (_, cells) -> ledger := List.rev_append cells !ledger) rows;
  match rows with
  | [] -> ()
  | (_, cells) :: _ ->
    let header c = if c.unit = "" then c.metric else Printf.sprintf "%s (%s)" c.metric c.unit in
    print_table
      ~columns:("row" :: List.map header cells)
      (List.map
         (fun (row, cells) -> row :: List.map (fun c -> show_value c.value ^ show_gate c) cells)
         rows)

(* Runs one experiment; an exception becomes an [error] row and the
   run goes on with the next experiment. *)
let run ~name f =
  experiment := name;
  try f ()
  with exn ->
    let msg = Printexc.to_string exn in
    Printf.printf "%s: error: %s\n%!" name msg;
    ledger :=
      { (cell "exception" "" Float.nan) with experiment = name; row = msg; gate = Some Error }
      :: !ledger

(* Writes the ledger (when the run produced rows), prints one line per
   gate, and returns the run's exit status. *)
let finish () =
  let rows = List.rev !ledger in
  if rows <> [] then write_ledger ledger_file rows;
  List.iter
    (fun r ->
      if Option.is_some r.gate then
        Printf.printf "%s / %s / %s = %s %s%s\n" r.experiment r.row r.metric (show_value r.value)
          r.unit (show_gate r))
    rows;
  exit_status rows

(* Each query's latency in ms, [reps] passes over, sorted ascending. *)
let latencies_ms ?(reps = 1) f queries =
  let a =
    Array.concat
      (List.init reps (fun _ ->
           Array.of_list (List.map (fun q -> 1000. *. snd (time (fun () -> f q))) queries)))
  in
  Array.sort Float.compare a;
  a

(* Fails with [what] unless [run] answers each query with the record ids
   the oracle's [expected] holds for it. *)
let check_oracle what run queries expected =
  List.iter2
    (fun q want ->
      let got = run q in
      if not (List.equal Int.equal got want) then
        failwith
          (Printf.sprintf "%s: %d ids, the oracle %d" what (List.length got) (List.length want)))
    queries expected

(* --- the A/B overhead runner (E22, E26, E27) --- *)

(* A mode: [enter] switches the system into it (outside any timing),
   [run] answers one query with its record ids. *)
type 'q mode = { name : string; enter : unit -> unit; run : 'q -> int list }

let mode ?(enter = ignore) name run = { name; enter; run }

(* [lat_us]: each query's best latency, sorted ascending on return *)
type ab = { mode : string; mutable pass_s : float; lat_us : float array }

(* One warm-up pass of [base] records the oracle answers, and every
   other mode must reproduce them before anything is timed. Then
   [passes] rounds run each mode once in turn, so drift hits them all
   alike; [base] runs twice per round, and its second copy, the "A/A"
   row, shows the noise every overhead reads against. Each mode is
   reported against [base] by its best pass (summed query latencies) as
   a throughput loss (E22's quantity) and by the p50/p99 of each
   query's best latency as a latency gain (E26's); the A/A row reports
   magnitudes, since noise has no sign. [gates] binds (mode, metric)
   pairs to bounds. [base] is entered again on return. *)
let ab ~passes ?(gates = []) base others queries =
  base.enter ();
  let expected = List.map base.run queries in
  List.iter
    (fun m ->
      m.enter ();
      check_oracle (Printf.sprintf "mode %S diverges from %S" m.name base.name) m.run queries
        expected)
    others;
  Printf.printf "(%d modes agree on %d queries; best of %d interleaved passes)\n"
    (1 + List.length others) (List.length queries) passes;
  let queries = Array.of_list queries in
  let timed =
    List.map
      (fun m ->
        (m, { mode = m.name; pass_s = infinity; lat_us = Array.map (fun _ -> infinity) queries }))
      (base :: { base with name = "A/A" } :: others)
  in
  for _ = 1 to passes do
    List.iter
      (fun (m, r) ->
        m.enter ();
        let pass = Array.map (fun q -> 1e6 *. snd (time (fun () -> m.run q))) queries in
        Array.iteri (fun i t -> r.lat_us.(i) <- Float.min r.lat_us.(i) t) pass;
        r.pass_s <- Float.min r.pass_s (Array.fold_left ( +. ) 0. pass /. 1e6))
      timed
  done;
  base.enter ();
  let results = List.map (fun (_, r) -> Array.sort Float.compare r.lat_us; r) timed in
  let b = List.hd results in
  report
    (List.mapi
       (fun i r ->
         let cell' metric unit v =
           let bound =
             List.find_map
               (fun ((m, k), bound) ->
                 if String.equal m r.mode && String.equal k metric then Some bound else None)
               gates
           in
           cell ?bound metric unit (if i = 1 then Float.abs v else v)
         in
         let pct q = 100. *. (quantile r.lat_us q -. quantile b.lat_us q) /. quantile b.lat_us q in
         ( r.mode,
           [ cell "best_pass" "ms" (1000. *. r.pass_s);
             cell "p50" "us" (quantile r.lat_us 0.50);
             cell "p99" "us" (quantile r.lat_us 0.99);
             cell' "pass_overhead" "%" (100. *. (1. -. (b.pass_s /. r.pass_s)));
             cell' "p50_overhead" "%" (pct 0.50);
             cell' "p99_overhead" "%" (pct 0.99) ] ))
       results);
  results
