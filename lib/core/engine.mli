(** The query engine: one entry point over both algorithms, all join types,
    all embedding semantics, caching, and Bloom prefiltering.

    This is the layer the paper's empirical study scripts against: pick an
    algorithm and optimizations in {!config}, then run queries or whole
    workloads against an {!Invfile.Inverted_file.t}. *)

type algorithm =
  | Top_down  (** Sec. 3.1 — strict (true-embedding) variant *)
  | Top_down_paper
      (** Sec. 3.1 exactly as published — path-containment relaxation for
          branching queries; see {!Top_down.run_paper} *)
  | Bottom_up  (** Sec. 3.2 *)
  | Naive_scan  (** Sec. 3, comment (1) — the full-scan baseline *)
  | Signature_scan
      (** signature-file baseline from the flat-set literature the paper
          builds on: scan the per-record hierarchical Bloom signatures
          ({!Filter_index}, which must be set in the config), verify
          survivors with the {!Embed} oracle. Root scope only. *)

type scope =
  | Roots  (** Equation 2: match whole records (root-to-root) — default *)
  | Anywhere  (** match the query at any internal node *)

type config = {
  algorithm : algorithm;
  join : Semantics.join;
  embedding : Semantics.embedding;
  scope : scope;
  verify : bool;
      (** re-check every reported match with the {!Embed} oracle and drop
          false positives (exact equality join; belt-and-braces elsewhere) *)
  filter_index : Filter_index.t option;
      (** Bloom prefilter (Sec. 3.3), applied before the algorithm runs *)
  td_order : Top_down.order;
      (** child-processing order for the strict top-down algorithm *)
  spill_to : string option;
      (** run the bottom-up stack through {!Storage.Ext_stack} backed by
          this file — the paper's STXXL option (Sec. 5.1, assumption (2)) *)
  wildcards : bool;
      (** interpret trailing-['*'] query leaves as atom-prefix patterns
          (containment join only; candidate lists become unions over the
          matching atoms — an ordered range scan on the B+tree backend) *)
  minimize : bool;
      (** rewrite the query with {!Minimize} before evaluation — applied
          only where sound (containment × hom/homeo/homeo-full, without
          wildcards); a no-op elsewhere *)
}

val default : config
(** [Bottom_up], [Containment], [Hom], [Roots], no verification, no
    prefilter. *)

type result = {
  nodes : Intset.t;  (** matching node ids (roots only under [Roots]) *)
  records : int list;  (** matching record ids, ascending *)
  prefilter_survivors : int option;
      (** record count that passed the Bloom prefilter, when one ran *)
}

val query :
  ?config:config -> ?trace:Obs.Trace.t -> Invfile.Inverted_file.t ->
  Nested.Value.t -> result
(** Evaluates [q ⋈ S] for one query value.

    When [trace] is given, each evaluation phase records a span into it,
    named by its {!Obs.Phase}:
    [minimize] (when applied), [prefilter] (when a filter index is set,
    with [survivors]), [retrieve] (for the index algorithms: one [atom:a]
    child per distinct query atom, each with its lookup/hit/miss delta),
    [eval] (algorithm, candidate
    count, [filter] true or false, and when true [filter_atom] and
    [filter_records], I/O deltas) and [verify] (checked/kept). Every phase span and
    the enclosing root carry [lookups]/[hits]/[misses] deltas pulled from
    {!Invfile.Inverted_file.lookup_stats}, so the tree reconciles with
    {!Storage.Io_stats} totals. Without [trace], nothing is recorded, no
    counter is sampled and no extra I/O happens. While the flight
    recorder is enabled, the same phases also leave begin/end edges in
    it, traced or not.

    The [retrieve] phase resolves each distinct non-pattern atom once,
    traced or not ({!Invfile.Inverted_file.pin}): the cached list, or the
    undecoded payload when the cache would not keep it, with its length
    from the list header. [eval] reads those sources, so a traced query
    runs the same kernels on the same cursor kinds as an untraced one,
    with one lookup per distinct atom, and looks nothing up itself.
    Inside an enclosing scope ({!query_batch}, [Join.Engine.join]) an
    atom that scope already resolved is not looked up again. [Naive_scan]
    and [Signature_scan] read records, not lists: they have no [retrieve]
    phase and look no list up.

    {b Record filter.} Under the [Containment] and [Equality] joins, with
    [Top_down], [Top_down_paper] or [Bottom_up], every answer lies in a
    record that holds every non-pattern query atom. When the shortest
    atom list is empty, or its length times
    {!Invfile.Plist_blocks.block_size} is below the longest list's,
    [eval] restricts every cursor of the query to the records of that
    shortest list (intersected with the Bloom survivors under [Roots]),
    so the kernels decode only the blocks those records land on; the
    answer is unchanged. An empty shortest list answers empty without
    running the algorithm — also for a combination the algorithm would
    refuse, as a Bloom prefilter that eliminates every record already
    did — and resolves no atom after it, so a query naming an atom absent
    from the collection reads no list after that atom. There is no knob:
    the gate decides.
    @raise Invalid_argument if the query is an atom.
    @raise Semantics.Unsupported per {!Semantics.mode_of}. *)

val query_prepared :
  ?config:config -> ?trace:Obs.Trace.t -> Invfile.Inverted_file.t ->
  Query.t -> result

val record_values : Invfile.Inverted_file.t -> result -> Nested.Value.t list
(** Materializes the matching records' values. *)

val query_batch :
  ?config:config -> ?traces:Obs.Trace.t option list ->
  Invfile.Inverted_file.t -> Nested.Value.t list -> result list
(** Evaluates a block of queries against one handle: {!query} for each
    value, inside one resolution scope
    ({!Invfile.Inverted_file.with_query}), so every distinct atom across
    the block is looked up once, by the first query that names it, with
    or without an attached cache. Results are returned in input order and
    are identical to running {!query} per value; the scope leaves no pin
    and no record filter behind, also when a query raises.

    [traces] pairs up positionally with the values (shorter lists are
    padded with [None]); each query records into its own trace exactly
    the phases it records alone ([minimize] included). An atom an earlier
    query of the block resolved shows in a later query's [retrieve] span
    with no lookup.

    A handle is {e not} shareable across domains (separate descriptors per
    domain, as {!Parallel} does), but one handle may interleave prepared
    batches and single queries freely — the server's per-domain workers
    rely on this re-entrancy. *)

val containment_join :
  ?config:config -> Invfile.Inverted_file.t -> Nested.Value.t list ->
  (int * int list) list
(** Equation 1 of the paper: evaluates [Q ⋈ S] for a whole query
    collection, returning [(query index, matching record ids)] pairs. *)

val witnesses :
  ?config:config -> Invfile.Inverted_file.t -> Nested.Value.t ->
  (int * Embed.witness) list
(** One concrete embedding per matching node: where each query node lands
    in the data (computed with the {!Embed} oracle over the reported
    matches). Not defined for the superset join's inner nodes. *)

(** {1 Explain} *)

val atom_plan :
  Invfile.Inverted_file.t -> string -> Obs.Explain.atom_plan
(** Planner-level statistics for one atom's posting list: length, payload
    bytes, codec and block count, straight from the stored payload
    (zeros and codec ["-"] for an absent atom). The building block the
    profile's atom table — and the join/live/shard explain paths — share. *)

val explain_profile :
  ?config:config -> ?target:string -> Invfile.Inverted_file.t ->
  Nested.Value.t -> Obs.Explain.t
(** The full plan/profile behind [nscq explain] and NSCQL [EXPLAIN]:
    executes the query once under an internal trace and returns the
    planned atom order (posting lengths, payload bytes, codec, block
    counts — rarest first) together with estimated vs. measured
    candidates per phase. Actual counts are read back from the profiled
    run's own trace, so they reconcile exactly with an independent
    traced execution of the same query; estimates follow the paper's
    static model (prefilter ≤ record count, eval ≤ the rarest list's
    length, verify starts from eval's survivors). [target] labels the
    plan node (default ["store"]). *)

val profile_of_trace :
  ?config:config -> ?target:string -> Invfile.Inverted_file.t ->
  Nested.Value.t -> Obs.Trace.span -> int -> Obs.Explain.t
(** [profile_of_trace inv value root records] builds the
    {!explain_profile} value from an already-finished trace of a
    [query ~config inv value] run — for callers (the live store, the
    shard router) that need the query's result {e and} its profile from
    a single evaluation. [records] is the result count to report. *)

(** {1 Verification & repair}

    The durability story end-to-end: {!Invfile.Journal} makes updates
    atomic, {!Storage.Log_store} recovers torn tails, and these entry
    points let an operator (or [nscq check] / [nscq repair]) audit and
    restore a store. *)

val verify_store : Invfile.Inverted_file.t -> Invfile.Integrity.problem list
(** Full offline consistency audit of the store behind a collection —
    {!Invfile.Integrity.check}; empty means consistent. *)

type repair_report = {
  rolled_back : int;  (** keys restored by finishing a pending journal *)
  problems_before : Invfile.Integrity.problem list;
  rebuilt : Invfile.Repair.outcome option;
      (** set when the index had to be rebuilt from the records *)
  problems_after : Invfile.Integrity.problem list;
      (** non-empty only when even a rebuild could not restore consistency *)
}

val repair : Invfile.Inverted_file.t -> repair_report
(** Restores a damaged store: completes any pending journal rollback,
    then — if the index still disagrees with the stored records — rebuilds
    it from them ({!Invfile.Repair.rebuild}). The handle is refreshed and
    usable afterwards. *)

val pp_repair_report : Format.formatter -> repair_report -> unit

(** {1 Workloads} *)

type workload_stats = {
  queries : int;
  results_total : int;  (** sum of matching record counts *)
  positives : int;  (** queries with ≥ 1 result *)
  elapsed_s : float;
  cache_hits : int;
  cache_misses : int;
  io_reads : int;
  io_bytes_read : int;
}

val run_workload :
  ?config:config -> Invfile.Inverted_file.t -> Nested.Value.t list -> workload_stats
(** Executes the queries sequentially — the paper's unit of measurement
    (Sec. 5.2: elapsed time of sequentially executing all benchmark
    queries) — and reports elapsed time plus cache and I/O deltas. *)

val pp_workload_stats : Format.formatter -> workload_stats -> unit
