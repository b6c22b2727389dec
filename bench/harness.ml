(* Shared plumbing for the figure experiments: collection builders over a
   choice of backend, workload timing, and table printing. *)

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
  Printf.printf "\n=== %s ===\n" title;
  if explanation <> "" then Printf.printf "%s\n" explanation

let write_csv ~columns rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (!current_slug ^ ".csv") in
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
