(* Order statistics over raw samples. Percentiles are nearest-rank on the
   sorted samples, in integer arithmetic, so a p99 is always one of the
   measured values and never an interpolation or a histogram bucket edge. *)

(* A percentile is only reported when this many samples lie beyond it;
   with fewer, one unlucky sample decides the value. *)
let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [pct]-th percentile among [n] samples:
   the smallest rank r with r / n >= pct / 100. *)
let rank ~n ~pct =
  if n <= 0 then invalid_arg "Bstats.rank: no samples";
  if pct <= 0 || pct > 100 then invalid_arg "Bstats.rank: pct outside 1..100";
  ((pct * n) + 99) / 100

let beyond ~n ~pct = n - rank ~n ~pct

let percentile a pct = a.(rank ~n:(Array.length a) ~pct - 1)

let tail a pct =
  let n = Array.length a in
  if n > 0 && beyond ~n ~pct >= min_beyond then Some (percentile a pct) else None

(* The conventional median: the mean of the two middle values for an even
   count (used for per-run summaries such as repeated set-up times). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstats.median: no samples";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* One timed repetition of a piece of a workload's fixed pass: which
   piece, how long it took, and the latencies of the operations in it. *)
type rep = { piece : int; dur_ms : float; ops_ms : float list }

(* The fastest repetition of every piece, ordered by piece. Interference
   on a shared machine only ever slows a repetition down, and a piece
   repeats the same work every time, so its fastest repetition is the
   steadiest estimate of what the program itself costs for that work
   (the minimum estimator of Chen and Revels, "Robust benchmarking in
   noisy environments", 2016). *)
let best_reps reps =
  let best = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt best r.piece with
      | Some b when b.dur_ms <= r.dur_ms -> ()
      | _ -> Hashtbl.replace best r.piece r)
    reps;
  Hashtbl.fold (fun _ r l -> r :: l) best []
  |> List.sort (fun a b -> Int.compare a.piece b.piece)

(* Self time of a span [lo, hi): its length minus the part covered by the
   union of its children's intervals, each clipped to the parent. Children
   may overlap (spans from concurrent domains) or spill past the parent
   (clock granularity); neither is counted twice or outside. *)
let self_time ~lo ~hi children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, lo) clipped
  in
  hi - lo - covered
