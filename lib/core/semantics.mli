(** Query semantics: join types, embedding semantics, and the evaluation
    mode they compile to.

    The paper presents one pair of algorithms and obtains the other joins
    (Sec. 4.1) and embedding semantics (Sec. 4.2) by swapping (i) how the
    candidate list of a query node is computed and (ii) the condition under
    which a candidate covers the node's subquery. {!mode_of} performs
    exactly that compilation; {!Top_down} and {!Bottom_up} are generic over
    the resulting {!mode}. *)

type join =
  | Containment  (** [q ⊆ s] — the paper's Equation 2 *)
  | Equality  (** [q = s] (Sec. 4.1); see note on precision in {!Engine} *)
  | Superset  (** [q ⊇ s] (Sec. 4.1) *)
  | Overlap of int  (** ε-overlap join, [ε ≥ 1] (Sec. 4.1) *)
  | Similarity of float
      (** relative-overlap join: every matched query node must share at
          least [⌈r·|ℓ(n)|⌉] leaf values with its image, [0 < r ≤ 1] — the
          "set similarity" relaxation the paper lists as future work
          (Sec. 6, item (4)) *)

type embedding =
  | Hom  (** homomorphic — the paper's default *)
  | Iso  (** isomorphic: sibling-injective *)
  | Homeo  (** homeomorphic: internal edges relax to ancestor–descendant *)
  | Homeo_full
      (** fully homeomorphic: leaf edges relax too, i.e. a query node's leaf
          values may occur anywhere in its image's subtree — the lifting of
          the restriction in the paper's footnote 4. Candidate lists are the
          ancestor closures of the leaf postings (via parent pointers).
          Containment join only. *)

(** How a candidate node [p] must relate to the matches of the query
    children. *)
type cover =
  | Exists_child
      (** every query child is covered by {e some} internal child of [p]
          (homomorphism) *)
  | Exists_distinct
      (** as above, by {e pairwise-distinct} children (isomorphism) *)
  | All_data_children
      (** every internal child of [p] covers {e some} query child
          (superset join: the embedding runs from data into query) *)

type edge =
  | Child  (** parent–child (hom, iso) *)
  | Descendant  (** ancestor–descendant (homeo) *)

type mode = {
  gen :
    Invfile.Inverted_file.t -> ?parents_of:Invfile.Plist.idset -> Query.node ->
    Invfile.Plist.t;
      (** candidate list of a query node (Alg. 2 line 8 / Alg. 4 line 11),
          computed by {!Invfile.Plist_stream}'s kernels over
          {!Invfile.Inverted_file.cursor}s — one path whether the lists
          are cached or read straight from their payloads. See
          {!candidates} for [~parents_of]. *)
  cover : cover;
  edge : edge;
  leafless_is_universe : bool;
      (** the candidates of a query node without leaves are every internal
          node (the containment and similarity joins), so an
          unconstrained node such as [{}] matches all of them *)
}

exception Unsupported of string

val mode_of : ?wildcards:bool -> join -> embedding -> mode
(** @raise Unsupported for combinations the algorithms do not define
    (currently [Superset]/[Equality] with [Homeo], and [Superset] with
    [Iso]). With [~wildcards:true] (containment only) a query leaf ending
    in ['*'] matches any atom with that prefix; its candidate list is the
    union of the matching atoms' lists. *)

val is_pattern : string -> bool
(** Whether an atom is a prefix pattern (ends in ['*']), as interpreted
    under [~wildcards:true]. *)

val candidates :
  mode -> ?parents_of:Invfile.Plist.idset -> Invfile.Inverted_file.t -> Query.node ->
  Invfile.Plist.t
(** The candidate list of a query node. [~parents_of:h] says the caller
    only needs candidates that parent some member of [h] (the small side
    of the bottom-up algorithm, Alg. 4): when those parents are fewer
    than a quarter of the list, the result keeps only their rows, and an
    intersection is then driven by the parent ids, decoding only the
    blocks they land on. Otherwise the full list is returned. *)

val pp_join : Format.formatter -> join -> unit
val pp_embedding : Format.formatter -> embedding -> unit
