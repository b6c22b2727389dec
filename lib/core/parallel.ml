type result = {
  elapsed_s : float;
  results_total : int;
  positives : int;
}

let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* One domain stays free for the caller (accept loops, the bench driver);
   NSCQ_DOMAINS overrides for constrained CI hosts and experiments. *)
(* Never 0 or negative, whatever NSCQ_DOMAINS holds or however few cores
   the host reports: every consumer spawns this many domains. *)
let default_domains () =
  match Option.bind (Sys.getenv_opt "NSCQ_DOMAINS") int_of_string_opt with
  | Some n -> max 1 n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let map ~domains f items =
  if domains < 1 then invalid_arg "Parallel.map: domains must be ≥ 1";
  match items with
  | [] | [ _ ] -> List.map f items
  | _ when domains = 1 -> List.map f items
  | _ ->
    let items = Array.of_list items in
    let n = Array.length items in
    let workers = min domains n in
    let results = Array.make n None in
    (* worker [w] takes items w, w + workers, ...; the caller is worker 0.
       Each slot is written by exactly one worker and read after the
       joins, so the array needs no lock. *)
    let work w () =
      let i = ref w in
      while !i < n do
        results.(!i) <-
          Some
            (match f items.(!i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        i := !i + workers
      done
    in
    let spawned = List.init (workers - 1) (fun w -> Domain.spawn (work (w + 1))) in
    work 0 ();
    List.iter Domain.join spawned;
    List.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      (Array.to_list results)

let slice ~domains i queries =
  List.filteri (fun j _ -> j mod domains = i) queries

let run_slice open_handle config cache_budget queries =
  let inv = open_handle () in
  Fun.protect
    ~finally:(fun () -> Invfile.Inverted_file.close inv)
    (fun () ->
      if cache_budget > 0 then
        Invfile.Inverted_file.attach_cache inv
          (Invfile.Cache.create Invfile.Cache.Static ~capacity:cache_budget);
      List.fold_left
        (fun (total, pos) q ->
          let r = Engine.query ~config inv q in
          let n = List.length r.Engine.records in
          (total + n, if n > 0 then pos + 1 else pos))
        (0, 0) queries)

let run_workload ?domains ~open_handle ?(config = Engine.default)
    ?(cache_budget = 0) queries =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Parallel.run_workload: domains must be ≥ 1";
  let t0 = Unix.gettimeofday () in
  let results_total, positives =
    List.init domains (fun i -> slice ~domains i queries)
    |> map ~domains (run_slice open_handle config cache_budget)
    |> List.fold_left (fun (t, p) (t', p') -> (t + t', p + p')) (0, 0)
  in
  { elapsed_s = Unix.gettimeofday () -. t0; results_total; positives }
