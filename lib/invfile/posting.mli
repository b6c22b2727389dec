(** Inverted-file postings: the row record.

    For an atom [a], the inverted list [S_IF(a)] contains one posting per
    internal node [p] that has a leaf child labelled [a] (paper, Sec. 2).
    Beyond the paper's core payload — the sorted ids [C] of [p]'s internal
    children — postings carry the node's leaf count (needed by the
    set-equality and superset joins, Sec. 4.1) and its post-order rank
    (needed for the homeomorphic descendant test, Sec. 4.2), as the paper
    itself proposes.

    A record is one posting on its own: what {!Merger} shifts,
    {!Updater} appends, {!Integrity} derives from the stored records to
    compare against, and what the {!Plist_ref} oracle computes over.
    Lists are not arrays of records but int columns ({!Plist}):
    {!Builder} and {!Repair} append record-tree nodes to columns
    directly, and {!Plist.get} and {!Plist.of_postings} convert. The
    byte encoding of a posting is {!Plist}'s. *)

type t = {
  node : int;  (** id of the internal node containing the leaf; [= pre rank] *)
  children : int array;  (** internal children of [node], strictly increasing *)
  leaf_count : int;  (** number of leaf children of [node] *)
  post : int;  (** post-order rank of [node] *)
  parent : int;  (** id of the parent internal node, [-1] at a record root —
                     supports ancestor-closure candidate generation for the
                     fully-homeomorphic semantics (paper, footnote 4) *)
}

val of_tree_node : Nested.Tree.node -> t

val compare : t -> t -> int
(** Orders by [node] id (unique within a list). *)

val pp : Format.formatter -> t -> unit
