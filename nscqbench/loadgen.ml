(* Client-side load against an in-process server, over the wire protocol
   (Server.Client): closed-loop query clients and periodic samplers. *)

let now_ns = Util.now_ns

type pass = {
  run : Report.pass;  (** completed round trips *)
  requests : Probes.request list;  (** traced passes only *)
}

(* Rounds over every query of [texts], repeated until [seconds] have
   passed. A round is [pieces] pieces, each a consecutive share of
   [texts]. In each piece [clients] threads, each on its own connection
   (opened once per pass), send the piece's queries closed-loop, the next
   as soon as the previous reply arrived: client k sends the piece's
   queries k, k + clients, k + 2 clients, ... So every repetition of a
   piece is the same work, timed from the first send to the last reply.
   [check i payload] is the oracle's verdict on a reply, taken after the
   piece. *)
let closed_loop ~port ~clients ~pieces ~seconds ~texts ~check ~tally =
  let conns = Array.init clients (fun _ -> Server.Client.connect ~port ()) in
  let traced = Spans.enabled () in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let reps = ref [] and requests = ref [] in
  let per_piece = Array.length texts / pieces in
  let run_piece piece =
    let out = Array.make clients [] in
    let worker k =
      let acc = ref [] in
      let i = ref ((piece * per_piece) + k) in
      while !i < (piece + 1) * per_piece do
        let t0 = now_ns () in
        let r = Server.Client.query conns.(k) texts.(!i) in
        acc := (!i, r, t0, now_ns ()) :: !acc;
        i := !i + clients
      done;
      out.(k) <- !acc
    in
    let r0 = now_ns () in
    List.iter Thread.join (List.init clients (fun k -> Thread.create worker k));
    let r1 = now_ns () in
    let lat = ref [] in
    Array.iter
      (List.iter (fun (i, r, t0, t1) ->
           (match r with
           | Ok payload -> Tally.check tally (check i payload)
           | Error (Server.Wire.Overloaded, _) -> Tally.refuse tally
           | Error _ -> Tally.fail tally);
           lat := Util.ms_between t0 t1 :: !lat;
           if traced then begin
             let rspan = Spans.record ~name:"server.request" ~start_ns:t0 ~stop_ns:t1 () in
             requests := { Probes.rspan; text = texts.(i); r0 = t0; r1 = t1 } :: !requests
           end))
      out;
    reps := { Bstats.piece; dur_ms = Util.ms_between r0 r1; ops_ms = !lat } :: !reps
  in
  let piece = ref 0 in
  Fun.protect
    ~finally:(fun () -> Array.iter Server.Client.close conns)
    (fun () ->
      Calib.reset ();
      while now_ns () < deadline do
        Calib.keep_up ();
        run_piece !piece;
        piece := (!piece + 1) mod pieces
      done);
  { run = { Report.reps = !reps; t0 = t_start; t_end = now_ns () }; requests = !requests }

(* Samples [f] every [period_s] on a thread until the returned stop
   function is called; the stop function returns the samples. *)
let sampler ~period_s f =
  let stop = Atomic.make false and samples = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          samples := f () :: !samples;
          Thread.delay period_s
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join th;
    !samples
