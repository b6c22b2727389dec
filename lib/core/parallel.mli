(** Multicore execution on OCaml 5 domains.

    The paper's implementation is "a single threaded process" (Sec. 5.1);
    queries over a read-only inverted file are embarrassingly parallel, so
    this module adds the obvious scale-up. {!map} is the one domain
    fan-out every parallel caller goes through: the workload runner
    below, the shard router's local shards ({!Partitioned.fan_out}) and
    the partitioner's shard builds. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] is [List.map f items], evaluated on at most
    [domains] domains at once: the calling domain plus up to
    [domains - 1] spawned ones, items dealt round-robin. Results keep
    item order. With [domains = 1] or fewer than two items everything
    runs in the caller and no domain is spawned.

    When calls raise, every spawned domain is joined first and then the
    exception of the {e first raising item in item order} is re-raised
    with its backtrace — so an error that every item would raise (an
    engine refusal, say) escapes as itself, whichever domain hit it
    first. [f] must be safe to run on several domains at once: no two
    calls may share a store handle, a cache or a {!Obs.Trace.t}.
    @raise Invalid_argument if [domains < 1]. *)

type result = {
  elapsed_s : float;  (** wall clock for the whole batch *)
  results_total : int;
  positives : int;
}

val run_workload :
  ?domains:int ->
  open_handle:(unit -> Invfile.Inverted_file.t) ->
  ?config:Engine.config ->
  ?cache_budget:int ->
  Nested.Value.t list ->
  result
(** Runs a query workload through {!map}, one slice per domain. Every
    slice opens its {e own} store handle (separate file descriptors — a
    store handle and its I/O counters are unsynchronised, so no two
    domains share one) through [open_handle], in the domain that runs
    it, and closes it when the slice completes. [cache_budget] attaches
    the static cache per slice (0 = none, the default). Queries are
    dealt round-robin. [domains] defaults to {!default_domains}.
    @raise Invalid_argument if [domains < 1]. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val default_domains : unit -> int
(** The [NSCQ_DOMAINS] environment variable when set to an integer
    (clamped to at least 1), else [Domain.recommended_domain_count () - 1]
    — one domain left free for the caller's own loop, and again never
    below 1, even on a single-core host. Unparseable [NSCQ_DOMAINS]
    values fall back to the core-count default. The default of
    {!run_workload}, [nscq serve], the shard router, and the bench
    driver. *)
