(** Per-query span tracing.

    A trace is a tree of timed spans, one trace per query, threaded through
    {!Containment.Engine.query} so each evaluation phase (minimize,
    prefilter, per-atom list retrieval, merge, verify) records where its
    time and I/O went. A partitioned evaluation (shards, live segments)
    grafts per-part sub-traces into the caller's tree, and
    {!to_wire}/{!of_wire} carry a span tree across the wire protocol so
    [nscq trace --connect] sees remote phases too.

    Tracing is strictly opt-in: the engine takes [?trace] and records
    nothing when it is absent, so the zero-trace hot path stays free of
    observability cost (the [obs-overhead] bench holds it under 5%). *)

type span = {
  name : string;
  start_s : float;  (** absolute start, [Unix.gettimeofday] seconds *)
  mutable duration_s : float;  (** [-1.] while the span is still open *)
  mutable attrs : (string * string) list;
  mutable children : span list;
  mutable closed : bool;
      (** while open, [attrs]/[children] are in reverse recording order;
          {!finish} closes the tree and restores forward order *)
}

type t
(** A trace context: an id, a root span, and a stack of open spans. Not
    thread-safe — each domain records into its own trace and finished
    sub-trees are {!graft}ed back. *)

val create : ?id:int -> string -> t
(** [create name] opens a trace whose root span is [name]. A fresh id
    (31-bit, so it rides in a u32 wire field) is drawn unless given. *)

val id : t -> int

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a child span of the innermost open
    span, timing it. The span is closed even if [f] raises. *)

val add_attr : t -> string -> string -> unit
(** Attaches [key=value] to the innermost open span (the root if none). *)

(** {1 Optional traces}

    Instrumented code takes [?trace] and records nothing without one;
    these run the code directly when the trace is [None]. Engine phases
    go through {!Phase.run} instead, which also emits recorder edges. *)

val opt_span : t option -> string -> (unit -> 'a) -> 'a
(** [opt_span trace name f] is {!span} when [trace] is given, [f ()]
    otherwise. *)

val opt_attr : t option -> string -> string -> unit
(** {!add_attr} when the trace is given, a no-op otherwise. *)

val finish : t -> span
(** Closes the root span (and any spans left open) and returns the tree.
    Children and attrs come out in recording order. *)

val root : t -> span
(** The root span as recorded so far, without closing anything. *)

(** {1 Assembling trees by hand}

    For spans not recorded by running code under {!span}: trees parsed
    from the wire ({!of_wire} builds them with {!make_span}) and
    finished sub-traces recorded on another domain or thread. *)

val make_span :
  ?attrs:(string * string) list -> ?children:span list ->
  name:string -> start_s:float -> duration_s:float -> unit -> span

val graft : t -> span -> unit
(** Adds a finished sub-tree as a child of the innermost open span. *)

(** {1 Rendering and wire form} *)

val render : span -> string
(** A human-readable indented tree: name, duration in ms, attrs. *)

val to_wire : ?id:int -> span -> string
(** Serializes a finished span tree as text lines (header [trace <id>],
    then one tab-separated line per span with depth, start µs, duration
    µs, name, attrs). Line-based so it composes with the existing
    line-oriented result payloads. *)

val of_wire : string -> (int * span) option
(** Parses {!to_wire} output; [None] if the payload is not a trace. *)

val escape : string -> string
(** %-escapes tab, newline, [=] and [%] — the encoding the tab/line
    wire forms (this module's and {!Explain}'s) use for free-text
    fields. *)

val unescape : string -> string
