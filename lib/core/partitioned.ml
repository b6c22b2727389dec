type 'src part = {
  label : string;
  src : 'src;
  translate : int -> int option;
}

type 'a outcome = Skipped | Answered of 'a | Failed of string

let ids translate locals = List.filter_map translate locals

let pairs translate pairs =
  List.filter_map
    (fun (o, local) -> Option.map (fun gid -> (o, gid)) (translate local))
    pairs

type 'a ran = {
  span : Obs.Trace.span option;
  ms : float;
  result : ('a, string) result;
}

(* One part's evaluation, timed, in its own sub-trace when the caller
   traces: a Trace.t is single-owner mutable state, so parts running on
   other domains or threads never touch the caller's. *)
let eval ?trace run p =
  let sub =
    Option.map (fun tr -> Obs.Trace.create ~id:(Obs.Trace.id tr) p.label) trace
  in
  let t0 = Unix.gettimeofday () in
  let result = run ?trace:sub p in
  let ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let finish sub =
    (match result with
    | Error reason -> Obs.Trace.add_attr sub "failed" reason
    | Ok _ -> ());
    Obs.Trace.finish sub
  in
  { span = Option.map finish sub; ms; result }

(* Exceptions are held per part and re-raised in part order once every
   domain and job is joined. *)
let capture f x =
  match f x with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())

let release = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let fan_out ?trace ?(domains = 1) ?(relevant = fun _ -> true) ?detach ~run
    ~translate ~fold init parts =
  let parts = Array.of_list parts in
  let ran = Array.make (Array.length parts) None in
  let jobs =
    List.filter (fun i -> relevant parts.(i)) (List.init (Array.length parts) Fun.id)
  in
  let detached, spawn =
    match detach with
    | Some (detached, spawn) -> (detached, spawn)
    | None -> ((fun _ -> false), fun job -> job (); Fun.id)
  in
  let background, inline = List.partition (fun i -> detached parts.(i)) jobs in
  let evaluate i = capture (eval ?trace run) parts.(i) in
  let joins =
    List.map (fun i -> spawn (fun () -> ran.(i) <- Some (evaluate i))) background
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun join -> join ()) joins)
    (fun () ->
      List.iter2 (fun i r -> ran.(i) <- Some r) inline
        (Parallel.map ~domains evaluate inline));
  let ran = Array.map (Option.map release) ran in
  Option.iter
    (fun tr ->
      Array.iter
        (function Some { span = Some s; _ } -> Obs.Trace.graft tr s | _ -> ())
        ran)
    trace;
  let acc = ref init in
  Array.iteri
    (fun i p ->
      let ms, outcome =
        match ran.(i) with
        | None -> (0., Skipped)
        | Some { ms; result = Ok v; _ } -> (ms, Answered (translate p.translate v))
        | Some { ms; result = Error reason; _ } -> (ms, Failed reason)
      in
      acc := fold !acc i p ~ms outcome)
    parts;
  !acc

let answers ?trace ~run ~translate parts =
  List.rev
    (fan_out ?trace
       ~run:(fun ?trace p -> Ok (run ?trace p))
       ~translate
       ~fold:(fun acc _ _ ~ms:_ -> function
         | Answered v -> v :: acc
         | Skipped | Failed _ -> acc)
       [] parts)
