(** Value-level embedding checks — the reference semantics.

    A direct, index-free implementation of the three embedding semantics of
    Sec. 2 and the join conditions of Sec. 4.1, by dynamic programming over
    (query node, data node) pairs. It defines the meaning the index-based
    algorithms must agree with: the naive baseline (Sec. 3's comment (1)),
    the [~verify] option of {!Engine}, and the test oracle are all built on
    it. Polynomial: O(|q| · |s|) table entries, each resolved with at most a
    bipartite matching over siblings. *)

val at_node :
  ?wildcards:bool ->
  Semantics.join -> Semantics.embedding -> q:Query.t -> s:Nested.Tree.t -> int -> bool
(** Does the query root match the given node of [s] (and its subquery embed
    below it)? For [Containment]/[Hom] this is the paper's [q ⊆ s] at that
    node. [~wildcards:true] interprets trailing-['*'] query leaves as
    prefix patterns (containment join only).
    @raise Invalid_argument if the node id is not in [s];
    @raise Semantics.Unsupported as {!Semantics.mode_of} does. *)

val nodes :
  ?wildcards:bool ->
  Semantics.join -> Semantics.embedding -> q:Query.t -> s:Nested.Tree.t -> Intset.t
(** All node ids of [s] at which the query root matches. *)

val contains : Semantics.embedding -> q:Nested.Value.t -> s:Nested.Value.t -> bool
(** Root-to-root containment [q ⊆ s] under the given embedding semantics.
    @raise Invalid_argument if either value is an atom. *)

val check :
  Semantics.join -> Semantics.embedding ->
  q:Nested.Value.t -> s:Nested.Value.t -> bool
(** Root-to-root check of an arbitrary join type. *)

(** {1 Witnesses} *)

type witness = (string * int) list
(** One embedding, as (query node path, data node id) pairs in query
    pre-order; a path names a query node by its child indices from the
    root (["root"], ["root.0"], ["root.0.1"], …). *)

val witness :
  ?wildcards:bool ->
  Semantics.join -> Semantics.embedding ->
  q:Query.t -> s:Nested.Tree.t -> int -> witness option
(** A concrete embedding of the query at the given node of [s], if one
    exists — the per-node images the boolean check only implies. For [Iso],
    sibling images in the witness are pairwise distinct. *)
