(** The request scheduler: a fixed pool of OCaml 5 domains behind one
    bounded admission queue.

    Each worker domain opens its {e own} execution {!backend} — by
    default a store handle and cache via {!store_backend} (exactly as
    {!Containment.Parallel} does — a store handle and its I/O counters
    are unsynchronised, so no two domains share one) — and loops:
    dequeue a batch of compatible requests ({!Batcher.coalesce}), run it
    as one block, reply.

    Admission is explicitly bounded: {!submit} refuses with [`Overloaded]
    when [queue_cap] requests are already waiting, instead of queueing
    unboundedly — the caller turns that into a wire [Overloaded] error and
    the client backs off. Requests carry an optional absolute deadline;
    a request whose deadline passes while queued is answered with
    [Deadline_exceeded] without running. *)

type t

type reply =
  | Data of string  (** success payload (chunked onto the wire by the caller) *)
  | Refused of Wire.error_code * string

(** Cumulative I/O counters of one worker's execution backend; the
    dispatcher folds deltas of these into {!Server_stats} after each
    batch. *)
type io_totals = {
  lookups : int;
  hits : int;
  misses : int;
  reads : int;
  bytes_read : int;
}

(** What a worker domain runs requests against. The default is
    {!store_backend} — one inverted-file handle per worker — but anything
    that can answer literal queries with a record-id payload plugs in
    (e.g. a shard router fanning out to many stores). All functions are
    called only from the worker domain that opened the backend, so they
    need no internal synchronisation. [run_literals] returns one payload
    per input value, in order ([traces] pairs up positionally when the
    dispatcher arms per-request tracing for the slow-query log);
    [run_traced] answers one [Trace]-verb request with a
    {!Wire.traced_payload}-composed payload (result ids + span tree under
    the given trace id). The run functions may raise —
    [Containment.Semantics.Unsupported] and [Invalid_argument] become
    [Bad_request] refusals, anything else [Server_error]. *)
type backend = {
  run_literals :
    ?traces:Obs.Trace.t option list -> Nested.Value.t list -> string list;
  run_statement : Containment.Nscql.statement -> string;
  run_traced : trace_id:int option -> Nested.Value.t -> string;
  run_join : Nested.Value.t list -> string;
      (** one [Join]-verb request: the whole outer collection against the
          served store, answered with a {!Wire.join_payload}-composed
          payload *)
  run_insert : Nested.Value.t -> string;
      (** one [Insert]-verb request; the payload is the new global record
          id in decimal. Read-only backends raise [Invalid_argument]
          (surfaced as [Bad_request]) *)
  run_delete : int -> string;
      (** one [Delete]-verb request; ["deleted"] or ["not-found"] *)
  run_explain : Nested.Value.t -> string;
      (** one [Explain]-verb request: plan and profile the literal
          instead of answering it; the payload is an
          {!Obs.Explain.to_wire} plan tree *)
  io_totals : unit -> io_totals;
  close : unit -> unit;
}

val store_backend :
  ?config:Containment.Engine.config ->
  cache_budget:int ->
  open_handle:(unit -> Invfile.Inverted_file.t) ->
  unit ->
  backend
(** The classic single-store backend: opens one
    {!Invfile.Inverted_file} handle ([cache_budget > 0] attaches a
    static cache of that many lists), answers literal blocks with
    {!Containment.Engine.query_batch}, NSCQL statements with
    {!Containment.Nscql.execute} and [Join] requests with
    {!Join.Engine.join} under the server's engine config. [Insert] and
    [Delete] are refused — the handles are read-only. *)

val live_backend :
  ?config:Containment.Engine.config ->
  store:Live.Live_store.t ->
  unit ->
  backend
(** Backend over one {e shared} {!Live.Live_store} — the writable serving
    path. Every worker domain submits to the same handle (the live store
    serializes internally; writes are immediately visible to all
    workers). [run_insert]/[run_delete] accept; NSCQL [INSERT]/[DELETE]
    statements execute too. [io_totals] reports zeros (the shared store's
    counters cannot be attributed per worker) and [close] is a no-op —
    the caller owns the store and closes it after {!drain}. *)

val create :
  ?paused:bool ->
  ?slow_ms:float ->
  ?flight_path:string ->
  domains:int ->
  queue_cap:int ->
  max_batch:int ->
  open_backend:(unit -> backend) ->
  stats:Server_stats.t ->
  unit ->
  t
(** Spawns [domains] worker domains immediately. With [~paused:true] the
    workers idle until {!resume} — submissions still queue (up to
    [queue_cap]), which gives tests and staged startups a deterministic
    way to fill the queue. [open_backend] is called once per worker, in
    that worker's domain.

    [slow_ms > 0.] arms the slow-query log: every literal request runs
    with a phase trace, and any request whose queue-entry → reply latency
    exceeds the threshold emits one {!Obs.Slow_log} line (digest, phase
    breakdown, I/O deltas) at warning level and bumps
    [nscq_slow_queries_total]. The default [0.] disables it — and skips
    the per-request trace allocation entirely.
    @raise Invalid_argument if [domains < 1], [queue_cap < 1] or
    [max_batch < 1].

    [flight_path] arms slow-query flight dumps: when a slow line fires
    and the {!Obs.Recorder} is enabled, the recorder rings are written
    there ({!Obs.Recorder.write_dump}), rate-limited to one dump every
    10 s so bursts don't thrash the disk. *)

val submit :
  t -> ?deadline:float -> request:Batcher.request -> reply:(reply -> unit) ->
  unit -> [ `Accepted | `Overloaded | `Shutting_down ]
(** Enqueues one request. [deadline] is absolute ([Unix.gettimeofday]
    scale). On [`Accepted], [reply] is called exactly once, later, from a
    worker domain — the callback must be thread-safe. On [`Overloaded] /
    [`Shutting_down] the callback is never called and nothing was queued. *)

val resume : t -> unit
(** Wakes the workers of a [~paused:true] dispatcher (idempotent). *)

val queue_depth : t -> int
val domains : t -> int

val slow_log : t -> Obs.Slow_log.t
(** The bounded in-memory ring of slow-query lines (newest
    [Obs.Slow_log.capacity] kept; older ones counted in
    {!Obs.Slow_log.dropped}). *)

val drain : t -> unit
(** Graceful shutdown: stop admitting, let the workers finish everything
    already queued, join them, close their handles. Idempotent; blocks
    until the queue is empty and every domain has exited. *)
