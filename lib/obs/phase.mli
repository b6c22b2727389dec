(** The engine phase vocabulary.

    One variant per evaluation phase of the per-query engine (the paper's
    Sec. 5 cost breakdown: list retrieval, intersection, verification)
    and of the prefix-tree set-containment join. A phase's {!name} is the
    one string every observability surface uses for it: the {!Trace}
    span name, the {!Recorder} phase-edge name, and the {!Explain} row
    label — so a trace, a flight-recorder timeline and a profile of the
    same query line up by construction. *)

type t =
  | Minimize  (** query rewriting before evaluation *)
  | Prefilter  (** Bloom prefilter over record signatures *)
  | Retrieve  (** per-atom list resolution *)
  | Eval  (** the containment algorithm proper *)
  | Verify  (** scope filtering and oracle re-checks (engine and join) *)
  | Build_tree  (** join: thread outer queries into prefix trees *)
  | Intersect  (** join: shared prefix intersections *)

val all : t list
(** Every phase, in declaration order. *)

val name : t -> string
(** The wire name: ["minimize"], ["prefilter"], ["retrieve"], ["eval"],
    ["verify"], ["build-tree"], ["intersect"]. Pinned by the Trace/Explain wire payloads and the
    flight-recorder dump's name table. *)

val of_name : string -> t option
(** Inverse of {!name}; [None] for a span that is not a phase. *)

val run : ?trace:Trace.t -> ?qid:int -> t -> (unit -> 'a) -> 'a
(** [run ?trace ?qid p f] runs [f] as phase [p]: inside a {!Trace.span}
    named [name p] when [trace] is given, and between {!Recorder}
    [Phase_begin]/[Phase_end] edges carrying [qid] (default [0], for
    phases outside any single query) when the recorder is enabled. The
    end edge and the span close even if [f] raises. With neither a trace
    nor the recorder, [f] runs directly. *)
