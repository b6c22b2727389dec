type t =
  | Minimize
  | Prefilter
  | Retrieve
  | Eval
  | Verify
  | Build_tree
  | Intersect

let all =
  [ Minimize; Prefilter; Retrieve; Eval; Verify; Build_tree; Intersect ]

let name = function
  | Minimize -> "minimize"
  | Prefilter -> "prefilter"
  | Retrieve -> "retrieve"
  | Eval -> "eval"
  | Verify -> "verify"
  | Build_tree -> "build-tree"
  | Intersect -> "intersect"

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

(* Recorder codes, interned once at module init so an edge costs a
   short physical-equality scan, never the name table's lock. *)
let codes = List.map (fun p -> (p, Recorder.intern (name p))) all

let run ?trace ?(qid = 0) p f =
  if not (Recorder.enabled ()) then Trace.opt_span trace (name p) f
  else begin
    let code = List.assq p codes in
    Recorder.phase_begin code ~qid;
    Fun.protect
      ~finally:(fun () -> Recorder.phase_end code ~qid)
      (fun () -> Trace.opt_span trace (name p) f)
  end
