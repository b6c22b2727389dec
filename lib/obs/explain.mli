(** Structured query plans and profiles (EXPLAIN).

    One value describes both the {e plan} — the atom retrieval order
    with posting-list lengths, payload sizes and codecs the paper's
    cost model ranks by (Sec. 3–4) — and the {e profile}: per phase
    (minimize / prefilter / retrieve / eval / verify, or
    build-tree / intersect / verify for joins) an estimated and a
    measured candidate count plus elapsed time. Layers nest: a live
    store attaches one sub-plan per segment, the router one per shard,
    so a single tree explains a query end to end.

    The engines ({!Containment.Engine.explain_profile},
    [Join.Engine.explain], [Live.Live_store.explain],
    [Shard.Router.explain]) build values, reading phase rows out of a
    trace through {!phases_of_trace}; this module is otherwise pure data
    plus rendering (text, JSON) and a line-oriented wire form for the
    [Explain] verb and NSCQL [EXPLAIN]. Row labels are {!Phase.name}s. *)

type atom_plan = {
  atom : string;
  list_len : int;  (** postings in [S_IF(atom)] *)
  bytes : int;  (** encoded payload size *)
  codec : string;  (** ["blocked"], ["varint"], or ["-"] *)
  blocks : int;  (** blocks in a blocked payload, [0] otherwise *)
}

type phase = {
  phase : string;
  est : int;  (** estimated candidates; [-1] = not applicable *)
  actual : int;  (** measured candidates; [-1] = not applicable *)
  ms : float;
  notes : (string * string) list;
}

type t = {
  target : string;
      (** what was explained: ["store"], ["live"], ["segment:<file>"],
          ["memtable"], ["shard:<i>"], ["join"], ... *)
  query : string;
  config : (string * string) list;
  atoms : atom_plan list;  (** planned retrieval order, rarest first *)
  phases : phase list;
  records : int;  (** result size; [-1] = unknown *)
  subs : t list;  (** per-segment / per-shard sub-plans *)
}

val make :
  ?config:(string * string) list ->
  ?atoms:atom_plan list ->
  ?phases:phase list ->
  ?records:int ->
  ?subs:t list ->
  target:string ->
  query:string ->
  unit ->
  t

(** {1 Phase rows from a trace}

    The engines profile a query by running it once under a trace and
    reading each phase span back; these are the shared readers. *)

val int_attr : Trace.span -> string -> int
(** [int_attr s key] is attribute [key] of [s] as an integer; [-1] when
    absent or not an integer. *)

val notes : Trace.span -> string list -> (string * string) list
(** The attributes of [s] among [keys] that are present, in [keys]
    order — a row's [notes]. *)

val phases_of_trace :
  (Phase.t -> Trace.span -> int * int * (string * string) list) ->
  Trace.span ->
  phase list
(** [phases_of_trace row root] is one row per child span of a finished
    trace root, in recording order, timed by the span's duration. A
    phase span's [(est, actual, notes)] come from [row] (called in order,
    so it may carry state from one phase to the next); a child that is
    not a {!Phase} gets [-1]/[-1] and no notes. *)

val render : t -> string
(** Human-readable indented text. *)

val to_json : t -> string

val to_wire : t -> string
(** Line-oriented serialization (header [explain 1], then one
    tab-separated line per plan node / config / atom / phase, each
    carrying its depth) — the payload of the wire [Explain] verb, and
    what the router parses to graft remote shards' sub-plans. *)

val of_wire : string -> t option
(** Parses {!to_wire} output; [None] if malformed. *)
