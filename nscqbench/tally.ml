(* Outcome counts of one workload's operations. Every operation attempted
   ends in exactly one bucket; anything but [ok] counts against the
   error rate, and a wrong answer fails the run. Shared by client
   threads, hence the lock. *)

type t = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;  (** transport or execution failure *)
  mutable refused : int;  (** refused by the server (e.g. overloaded) *)
  mutable wrong : int;  (** answered, but not what the oracle expects *)
}

let create () =
  { mu = Mutex.create (); attempted = 0; failed = 0; refused = 0; wrong = 0 }

let bump t f = Mutex.protect t.mu (fun () -> t.attempted <- t.attempted + 1; f ())
let ok t = bump t ignore
let fail t = bump t (fun () -> t.failed <- t.failed + 1)
let refuse t = bump t (fun () -> t.refused <- t.refused + 1)
let wrong t = bump t (fun () -> t.wrong <- t.wrong + 1)

(* Records one answered operation against its oracle verdict. *)
let check t correct = if correct then ok t else wrong t

let bad t = Mutex.protect t.mu (fun () -> t.failed + t.refused + t.wrong)

let error_rate t =
  Mutex.protect t.mu (fun () ->
      if t.attempted = 0 then 0.
      else
        float_of_int (t.failed + t.refused + t.wrong) /. float_of_int t.attempted)
