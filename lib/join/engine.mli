(** The set-containment join engine: [R ⋉⊆ S] for a whole outer collection
    in one pass (PRETTI with an adaptive depth limit — Bouros et al., "Set
    Containment Join Revisited", PAPERS.md).

    The join is one resolution scope ({!Invfile.Inverted_file.with_query}):
    it pins each distinct outer atom once ({!Invfile.Inverted_file.pin}) —
    a cached list costs no I/O, any other one store read — and the list
    length read off the list header both orders the atoms and rejects,
    with zero matches, every query naming an atom the collection does not
    have. The engine queries it falls back to read the same pins.

    A flat query (one query node) under [Hom], [Iso] or [Homeo] matches a
    record exactly when the record's root carries every query atom as a
    direct leaf, so node-level posting lists answer it with no record
    decode. Such queries have their atoms sorted by ascending list length
    (rarest first, ties by atom) and threaded into one {!Prefix_tree}; a
    single DFS then computes each prefix's candidate roots {e once}, shared
    by every query through the node. A depth-1 node's candidates are the
    root rows of its atom's list; a deeper node narrows its parent's
    candidates through {!Invfile.Plist_stream.inter_many} [~among], so a
    cached list is galloped in place and a payload decodes only the blocks
    the candidates land on.

    Tree expansion stops early, LIMIT+-style, when a node's candidate list
    is small, its sharing factor drops below a threshold, or the depth cap
    is reached; the queries below a cut narrow those candidates by their
    remaining atoms in one cursor pass, so a cut at any point is exact.

    Every other query is answered by {!Containment.Engine.query}, reading
    the atoms already resolved: nested queries and all queries under
    [Homeo_full] (their atoms may be witnessed at different nodes of a
    record), atomless queries, and every query of a configuration the
    prefix filter is not sound for (any join other than containment,
    [Anywhere] scope, wildcard patterns).

    Contract: [join inv values] returns exactly the pairs the naive loop
    [Containment.Engine.containment_join] returns — the qcheck differential
    suite and the bench E24 oracle gate pin this. *)

type config = {
  engine : Containment.Engine.config;
      (** semantics of each (outer, inner) test, and the configuration of
          the engine queries that answer what the tree does not *)
  max_depth : int;
      (** hard cap on prefix-tree expansion depth; [<= 0] means unlimited *)
  cut_candidates : int;
      (** LIMIT+ candidate threshold: a node whose candidate list has at
          most this many records is not expanded further — narrowing so
          few candidates by the remaining atoms is cheaper than more
          tree levels *)
  cut_fanout : int;
      (** LIMIT+ sharing threshold: a node serving fewer than this many
          queries is not expanded further (1 = never cut by fanout) *)
}

val default : config
(** {!Containment.Engine.default} semantics, [max_depth = 32],
    [cut_candidates = 8], [cut_fanout = 1]. *)

type stats = {
  outer : int;  (** outer queries processed *)
  fast_path : int;
      (** queries answered through the prefix tree, plus the
          preflight-rejected ones, which never reach it *)
  preflight_rejected : int;
      (** queries dismissed with zero matches because an atom does not
          occur anywhere in the collection *)
  fallback : int;
      (** queries answered by {!Containment.Engine.query}: nested and
          [Homeo_full] queries, atomless ones, and every query of a
          configuration the tree is not sound for *)
  tree_nodes : int;  (** prefix-tree nodes built *)
  nodes_expanded : int;  (** nodes whose candidate list was computed *)
  intersections_shared : int;
      (** intersections saved by prefix sharing: for each expanded node
          serving [k] queries, the naive loop would compute its
          intersection [k] times — [k - 1] are shared *)
  intersections_recomputed : int;
      (** cursor intersections actually performed (depth ≥ 2 nodes;
          depth-1 candidate lists are a scan of one list) *)
  limit_cuts : int;  (** subtrees finished early by a LIMIT+ cut *)
  candidates_checked : int;
      (** candidates of cut queries narrowed by their remaining atoms *)
  pairs : int;  (** result pairs emitted *)
}

type result = { pairs : (int * int) list; stats : stats }

val join :
  ?config:config -> ?trace:Obs.Trace.t -> Invfile.Inverted_file.t ->
  Nested.Value.t list -> result
(** [join inv values] evaluates the containment join of the outer
    collection [values] (indexed by position) against the records of
    [inv]. Pairs are [(outer index, record id)], strictly ascending by
    outer index then record id — deterministic for a given store and
    input order.

    When [trace] is given, three phase spans are recorded into it:
    [build-tree] (queries routed, distinct atoms fetched, tree size),
    [intersect] (nodes expanded, intersections shared vs recomputed,
    LIMIT+ cuts) and [verify] (candidates checked, pairs kept, engine
    queries run) — each with I/O deltas, mirroring
    {!Containment.Engine.query}'s phase tree. While the flight recorder
    is enabled, the three phases also leave begin/end edges in it (query
    id [0]), traced or not.
    @raise Invalid_argument if an outer value is an atom.
    @raise Containment.Semantics.Unsupported as the engine does for the
    configured semantics. *)

val explain :
  ?config:config -> ?target:string -> Invfile.Inverted_file.t ->
  Nested.Value.t list -> Obs.Explain.t
(** The join-side counterpart of
    {!Containment.Engine.explain_profile}: runs the join once under an
    internal trace and reports the outer collection's distinct atoms
    (rarest first) plus the three phases — [build-tree] (est: every
    outer query takes the fast path), [intersect] (est: every tree node
    is expanded), [verify] (est: every checked candidate survives) —
    with measured counts read back from the run's own trace, so they
    reconcile exactly with an independent traced [join]. [target]
    defaults to ["join"]. *)

val naive :
  ?config:Containment.Engine.config -> Invfile.Inverted_file.t ->
  Nested.Value.t list -> (int * int) list
(** The baseline: one {!Containment.Engine.query} per outer value
    ({!Containment.Engine.containment_join}), flattened to the same
    sorted pair form — the differential oracle for {!join}. *)

val group : outer:int -> (int * int) list -> int list list
(** [group ~outer pairs] splits sorted pairs into one ascending record-id
    list per outer index, [outer] lists in total (empty lists for outer
    queries with no matches) — the shape the wire payload and the shard
    router work in. *)

val register : Obs.Metrics.t -> unit
(** Publishes the process-wide join totals (joins run, nodes expanded,
    intersections shared/recomputed, pairs emitted, fallback queries,
    LIMIT+ cuts) as registry counters under [nscq_join_*]. *)
