(** The scatter-gather query router: one logical collection over N
    shards.

    A router opens every local shard of a {!Manifest} (one
    {!Invfile.Inverted_file} handle each, optionally with a static
    cache). Each shard is one part of a {!Containment.Partitioned}
    fan-out — label [shard:<i>], local ids translated to global ids
    through the manifest — so a query, a join or an explain is one call
    of that fan-out. What the router adds is its own:

    - the remote call: a remote shard is queried through
      {!Server.Client} on a thread of its own, with a per-request
      deadline, under the wire verb that matches the call ([Query] or
      [Trace], [Join], [Explain]);
    - the failure policy and per-shard statistics. [Fail_fast] (the
      default) raises {!Shard_failed} if any shard cannot be reached or
      errors, while [Partial] returns the surviving shards' results plus
      a warning per failed shard — the degraded mode a serving
      deployment prefers over going dark.

    Local shards run on up to [domains] domains through
    {!Containment.Parallel.map}; the merged answer is deterministic
    (ascending global ids) whatever the concurrency.

    Shards that provably cannot contribute are skipped: under the
    containment and equality joins (without wildcards) every query atom
    must occur in a matching record, so a local shard missing one of the
    query's atoms is pruned with key-existence probes before any list is
    read. Remote shards are always queried. *)

type fail_mode = Fail_fast | Partial

type config = {
  engine : Containment.Engine.config;  (** config for per-shard evaluation *)
  fail_mode : fail_mode;
  remote_deadline_ms : int;
      (** per-shard deadline for remote requests (0 = none), carried on
          the wire and enforced by the remote server's {!Server.Dispatch}
          deadline machinery *)
  domains : int;
      (** max local shards evaluated at once, the calling domain
          included ({!Containment.Parallel.map}); 1 = sequential in the
          caller, the right setting inside a server worker domain.
          Remote shards are not counted: each runs on its own thread. *)
  cache_budget : int;  (** static cache per local shard handle; 0 = none *)
}

val default_config : config
(** [Engine.default], [Fail_fast], no remote deadline,
    {!Containment.Parallel.default_domains} local domains, no cache. *)

type t

exception Shard_failed of int * string
(** Shard index and reason — raised under [Fail_fast]. *)

val open_manifest : ?config:config -> Manifest.t -> t
(** Opens every local shard store. Remote shards are connected per query
    (a dead remote is detected at query time, per [fail_mode]).
    @raise Invfile.Inverted_file.Malformed / Sys_error if a local shard
    store is missing or corrupt. *)

val close : t -> unit
(** Closes the local shard handles. Idempotent. *)

val manifest : t -> Manifest.t

type outcome = {
  records : int list;  (** matching global record ids, ascending *)
  warnings : (int * string) list;
      (** failed shards (index, reason) — nonempty only under [Partial] *)
  shards_queried : int;
  shards_skipped : int;  (** pruned by the atom-existence filter *)
}

val query : ?trace:Obs.Trace.t -> t -> Nested.Value.t -> outcome
(** Scatter, gather, translate, merge — see the module header.

    With [?trace], the fan-out is recorded as one [shard:<i>] span per
    queried shard in shard order, grafted into the caller's innermost
    open span after the gather barrier: every shard evaluates into its
    own sub-trace (a {!Obs.Trace.t} is single-owner mutable state, so
    domains never share the caller's). A local shard's span carries the
    engine's phase spans; a remote shard is queried with the wire
    [Trace] verb and its server-side span tree is parsed back and nested
    under a span marked [remote=true]. Failed shards' spans carry a
    [failed] attribute; skipped shards get none. [shards_queried]/[shards_skipped] are attached as
    attributes. A remote server predating the [Trace] verb answers with
    an error, handled per [fail_mode] like any shard failure.
    A config the engine refuses ({!Containment.Semantics.Unsupported},
    [Invalid_argument]) escapes as itself, not as a shard failure,
    whatever [domains] is.
    @raise Shard_failed under [Fail_fast], or when a shard answers with
    a record id its manifest entry does not map.
    @raise Invalid_argument if the query is an atom. *)

type join_outcome = {
  pairs : (int * int) list;
      (** [(outer index, global record id)] pairs, sorted ascending by
          outer index then id — each global id lives in exactly one
          shard, so the merged pair set is deterministic *)
  join_warnings : (int * string) list;
      (** failed shards (index, reason) — nonempty only under [Partial] *)
  join_shards_queried : int;
  join_shards_skipped : int;
}

val join : ?trace:Obs.Trace.t -> t -> Nested.Value.t list -> join_outcome
(** Scatter-gather set-containment join: the outer collection is
    broadcast to every shard (each holds a partition of the inner
    collection), evaluated per shard with {!Join.Engine.join} locally or
    the wire [Join] verb remotely, and the per-shard pair sets are
    translated to global ids and merged. A local shard is pruned only
    when {e no} outer query's atoms are all present — per-query pruning
    inside a relevant shard falls out of the prefix tree's own empty
    intersections. Deadlines, [fail_mode], and id translation behave as
    in {!query}.

    With [?trace], local shards evaluate into [shard:<i>] sub-traces
    carrying the join engine's build-tree/intersect/verify phases; remote
    shards appear as flat timed [remote=true] spans (the [Join] verb
    carries no span tree).
    @raise Shard_failed under [Fail_fast].
    @raise Invalid_argument if any outer value is an atom. *)

val explain : t -> Nested.Value.t -> Obs.Explain.t
(** Plan and profile the query on every shard, gathered into one
    [router]-rooted {!Obs.Explain.t} with one sub-plan per shard in
    shard order. Local relevant shards carry a full
    {!Containment.Engine.explain_profile}; pruned shards appear as a
    stub flagged [pruned=atom-relevance]; remote shards are asked over
    the wire [Explain] verb and their plan is nested under a
    [remote=<host:port>] stub. Unlike {!query}, a failed shard never
    raises regardless of [fail_mode] — the diagnostic degrades to a stub
    carrying the [failed=<reason>] attribute. The scatter is sequential
    (shard order), so sub-plans are deterministic.
    @raise Invalid_argument if the router is closed. *)

val record_value : t -> int -> Nested.Value.t option
(** The stored value behind a global record id, when its shard is local
    ([None] for remote shards and unknown ids). *)

(** {1 Writes}

    A record's owning shard is the one {!Partitioner.assign} places it
    on under the manifest's policy — the same placement a from-scratch
    rebuild of the grown collection would choose, so resharding and
    rebuilds stay id-compatible. Writes go through the owning shard's
    {!Invfile.Updater} (journal-protected); the router's in-memory
    manifest tracks the new id mapping — persist it with
    {!save_manifest} before dropping the router. Only local shards
    accept writes; a record owned by a remote shard raises
    {!Shard_failed} (the remote server owns its store — routing writes
    over the wire is future work). These calls are single-owner like
    the rest of the router: serialize externally if sharing a router
    across domains. *)

val insert : t -> Nested.Value.t -> int
(** Routes the value to its owning shard, appends it, and returns its
    new {e global} record id ([manifest.total_records] before the
    insert).
    @raise Shard_failed if the owning shard is remote.
    @raise Invalid_argument on a bare atom, or if the shard's store and
    manifest id map disagree. *)

val delete : t -> int -> bool
(** Deletes a global record id on its shard ([false] if unknown or
    already deleted). The manifest is unchanged — the shard store
    itself records the tombstone, exactly as a single store does.
    @raise Shard_failed if the shard is remote. *)

val save_manifest : t -> string -> unit
(** Persists the router's current manifest — required after {!insert}
    for the id maps to survive this router. *)

val register : Obs.Metrics.t -> ?labels:(string * string) list -> t -> unit
(** Publishes the router's counters into a metrics registry as callback
    metrics sampled at render time: [nscq_router_queries_total],
    [nscq_router_joins_total], [nscq_router_partial_answers_total], and
    per shard (labelled
    [shard="<i>"]) [nscq_shard_queries_total], [nscq_shard_failures_total],
    [nscq_shard_skips_total], [nscq_shard_results_total] and the
    [nscq_shard_query_ms_max] gauge. Each local shard additionally
    publishes its two {!Storage.Io_stats} (list lookups and raw store
    I/O, disambiguated by a [source] label) via
    {!Storage.Io_stats.register}. *)

val render_stats : t -> string
(** Cumulative router statistics: per-shard query counts, failures,
    latency (mean/max), result rows, and the local shards' aggregated
    {!Storage.Io_stats} (lookups, cache hits/misses, reads) — the
    sharded counterpart of [nscq stats]. *)

val dispatch_backend :
  ?config:config -> Manifest.t -> unit -> Server.Dispatch.backend
(** An execution backend for {!Server.Dispatch}: each server worker
    domain gets its own router (local handles and all) over [manifest].
    Literal queries scatter-gather with [config] (its [domains] is
    forced to 1 — concurrency comes from the worker pool); [Join]
    requests fan out through {!join} and answer with a
    {!Server.Wire.join_payload}; [Explain] requests answer with the
    {!explain} plan composed by {!Obs.Explain.to_wire}; NSCQL statements
    are refused as unsupported over a sharded collection. Partial-mode
    warnings are logged, not returned to the client. *)
