(* Clock, process and file-system helpers shared by the workloads. *)

let now_ns = Spans.now_ns
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9
let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

(* Times [f] on the monotonic clock: (result, seconds). *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_between t0 (now_ns ()))

(* Runs [setup] [times] times, timing each on the monotonic clock, and
   tears down every result but the last: (set-up times, last result).
   Set-up is repeated so its median is steady; the last instance is the
   one measured. *)
let repeated_setup ~times ~setup ~teardown =
  let rec go i acc =
    let r, dt = timed setup in
    if i < times then begin
      teardown r;
      go (i + 1) (dt :: acc)
    end
    else (dt :: acc, r)
  in
  go 1 []

(* A size field of /proc/self/status, in MiB. *)
let status_mb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:(field ^ ":") line ->
          Scanf.sscanf
            (String.sub line (String.length field + 1)
               (String.length line - String.length field - 1))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith (field ^ " missing from /proc/self/status")
      in
      scan ())

(* Resets the kernel's peak-resident-set mark to the current resident
   set and returns that set, in MiB. Called once the inputs and oracles
   exist, so the peak measured against it is what the program under test
   adds on top of them. *)
let rss_baseline () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5");
  status_mb "VmRSS"

let peak_rss_mb ~baseline = status_mb "VmHWM" -. baseline

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec disk_bytes path =
  match Sys.is_directory path with
  | true ->
    Array.fold_left
      (fun acc e -> acc + disk_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Scratch space for one run, inside the current directory. The leading
   underscore keeps dune from scanning it. *)
let work_root = "_nscqbench"

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let work_dir () =
  ensure_dir work_root;
  let d = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* Bytes of the records' literal syntax: the user data a store holds. *)
let literal_bytes values =
  Array.fold_left
    (fun acc v -> acc + String.length (Nested.Value.to_string v))
    0 values

(* Waits for [pred] on the monotonic clock, polling. *)
let wait_until pred =
  let t0 = now_ns () in
  while not (pred ()) do
    if seconds_between t0 (now_ns ()) > 60. then failwith "wait_until: timed out";
    Thread.delay 0.0005
  done

(* Where a traced run writes its spans; kept after the run, replaced by
   the workload's next traced run (a run's spans take tens of MB). *)
let trace_path ~workload =
  let d = Filename.concat work_root "traces" in
  ensure_dir work_root;
  ensure_dir d;
  Filename.concat d (workload ^ ".spans")
