(** Multicore workload execution.

    The paper's implementation is "a single threaded process" (Sec. 5.1);
    queries over a read-only inverted file are embarrassingly parallel, so
    this module adds the obvious scale-up on OCaml 5 domains. Every domain
    opens its {e own} store handle (separate file descriptors — a store
    handle and its I/O counters are unsynchronised, so no two domains
    share one) and its own cache, and runs a slice of the workload. *)

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
(** [open_handle] must return a fresh handle onto the same collection (it
    is called once per domain, in that domain); each handle is closed when
    its slice completes. [cache_budget] attaches the static cache per
    domain (0 = none, the default). Queries are dealt round-robin.
    [domains] defaults to {!default_domains}.
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
