(* A fixed probe of the machine's speed, run between a workload's pieces.

   The benchmark runs on a few cores of a shared host. Other tenants'
   load slows every piece of a run together, often for the whole run, so
   even a workload's fastest repetitions drift by a fifth from run to
   run. The probe does none of the program's work, but the same drift
   slows it: a chain of dependent loads through 1 MiB and an in-place
   sort, the load-latency and branch-bound mix the workloads spend their
   time in. Each probe walks the chain once untimed first, so what it
   times does not depend on what the workload left in the caches.
   Dividing a workload's best pass by the probe's time in the same pass
   ({!pass_ms}) cancels most of the drift, and still moves one for one
   with what the program itself costs. *)

let slots = 1 lsl 17
let sort_keys = 4_096

(* Share of a pass's wall time spent probing. *)
let share = 0.1

let rng = Random.State.make [| 0xca11b |]

(* Sattolo's shuffle of the identity: a random permutation that is one
   cycle through every slot. Outside the OCaml heap, so the collector
   never scans it, and made when the program starts, before a workload
   measures its resident-set baseline. *)
let next =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots in
  for i = 0 to slots - 1 do
    a.{i} <- i
  done;
  for i = slots - 1 downto 1 do
    let k = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{k};
    a.{k} <- t
  done;
  a

let keys = Array.init sort_keys (fun _ -> Random.State.bits rng)
let scratch = Array.make sort_keys 0

(* the current pass: when it started, time spent probing, probe times *)
let since = ref (Spans.now_ns ())
let spent_ns = ref 0
let times_ms = ref []

let chase () =
  let j = ref 0 in
  for _ = 1 to slots do
    j := Bigarray.Array1.unsafe_get next !j
  done;
  !j

(* One probe: the same loads and the same sort every time. *)
let probe () =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (chase ()));
  let t1 = Spans.now_ns () in
  let j = chase () in
  Array.blit keys 0 scratch 0 sort_keys;
  Array.sort Int.compare scratch;
  ignore (Sys.opaque_identity (j + scratch.(0)));
  let t2 = Spans.now_ns () in
  spent_ns := !spent_ns + (t2 - t0);
  times_ms := (float_of_int (t2 - t1) /. 1e6) :: !times_ms

(* Starts a pass: forgets earlier probes. *)
let reset () =
  since := Spans.now_ns ();
  spent_ns := 0;
  times_ms := []

(* Called between pieces: probes until probing has taken [share] of the
   pass so far. *)
let keep_up () =
  while float_of_int !spent_ns < share *. float_of_int (Spans.now_ns () - !since) do
    probe ()
  done

(* The probe's time in the pass, in ms, and how many probes ran: their
   10th percentile, a fast moment of the host as the workload's fastest
   repetitions are, but steadier from run to run than the single fastest
   probe of hundreds. *)
let pass_ms () =
  if !times_ms = [] then probe ();
  (Bstats.percentile (Bstats.sorted !times_ms) 10, List.length !times_ms)
