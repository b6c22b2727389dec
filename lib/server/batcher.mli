(** Request classification and batch formation.

    The scheduler amortizes index lookups by running compatible queued
    queries as one block against a domain's store handle
    ({!Containment.Engine.query_batch} — one resolution scope, so every
    distinct atom of the block is looked up once). Compatible means: plain nested-set literal queries
    evaluated under the server's default config. NSCQL statements run
    singly (they carry their own semantics clauses), and mutating
    statements are refused outright — the serving store is read-only, so
    the per-domain handles can never go stale against each other. *)

type request =
  | Literal of Nested.Value.t
      (** a bare nested-set literal — containment query, batchable *)
  | Statement of Containment.Nscql.statement
      (** a read-only NSCQL statement — executed singly *)
  | Traced of { value : Nested.Value.t; trace_id : int option }
      (** a literal evaluated under the wire [Trace] verb: runs singly
          (its phase spans must not interleave with a block's) and its
          response carries the span tree alongside the result ids *)
  | Join of Nested.Value.t list
      (** a whole outer collection evaluated as one set-containment join
          ([Join] wire verb) — runs singly, but {e identical} queued
          joins coalesce into one evaluation (see {!shares}): the join
          engine amortizes across its own outer queries already *)
  | Insert of Nested.Value.t
      (** add one record to a live collection ([Insert] wire verb, or
          NSCQL [INSERT] when the server is writable) *)
  | Delete of int
      (** delete one record by global id ([Delete] wire verb, or NSCQL
          [DELETE] when the server is writable) *)
  | Explain of Nested.Value.t
      (** plan and profile one literal instead of answering it ([Explain]
          wire verb) — runs singly; the reply is an
          {!Obs.Explain.to_wire} plan tree *)

val parse : ?writable:bool -> string -> (request, string) result
(** Classifies a wire [Query] verb's text: leading ['{'] means a literal,
    anything else is parsed as NSCQL. [Error] carries a client-facing
    message (syntax error, or — with [writable = false], the default — a
    refused [INSERT]/[DELETE]). With [~writable:true] (the server is
    backed by a live store) NSCQL [INSERT]/[DELETE] become {!Insert} /
    {!Delete} requests. *)

val parse_insert : string -> (request, string) result
(** Parses a wire [Insert] verb's text — one nested-set literal — into an
    {!Insert} request. *)

val parse_delete : string -> (request, string) result
(** Parses a wire [Delete] verb's text — one decimal global record id —
    into a {!Delete} request. *)

val parse_explain : string -> (request, string) result
(** Parses a wire [Explain] verb's text — one nested-set literal — into
    an {!Explain} request. *)

val parse_join : string -> (request, string) result
(** Parses a wire [Join] verb's text — one nested-set literal per line,
    blank lines skipped; no lines is the legal empty outer collection —
    into a [Join] request. [Error] names the offending line. *)

val batchable : request -> bool

val shares : request -> request -> bool
(** [shares a b] when one evaluation answers both: identical [Join]
    requests (equal outer collections, in order). Coalescing them means
    concurrent identical joins share a single prefix-tree build. *)

val coalesce :
  ?shares:('job -> 'job -> bool) ->
  'job Queue.t ->
  batchable:('job -> bool) -> max:int -> 'job list
(** Dequeues the next batch: the head job plus — when the head is
    batchable — up to [max - 1] contiguous batchable successors, or —
    when it is not — every contiguous successor that [shares] the head's
    evaluation (default: none). Stops at the first incompatible job so
    admission order is preserved. The caller must hold the queue lock and
    guarantee the queue is nonempty.
    @raise Queue.Empty on an empty queue. *)
