(** Reference inverted-list kernels — the differential-testing oracle.

    A frozen copy of the original materializing set operations: textbook
    sorted-merge intersection/union over decoded posting arrays. The
    cursor kernels of {!Plist_stream} (galloping over in-memory lists,
    block skipping over compressed payloads) are required to produce
    byte-identical results to this module on every input and every mix
    of cursor sources; [test/test_kernels.ml] enforces that with qcheck.

    Not used on any query path. Keep it simple and obviously correct. *)

type posting = {
  node : int;  (** id of the internal node containing the leaf; [= pre rank] *)
  children : int array;  (** internal children of [node], strictly increasing *)
  leaf_count : int;  (** number of leaf children of [node] *)
  post : int;  (** post-order rank of [node] *)
  parent : int;  (** the parent internal node, [-1] at a record root *)
}
(** One posting of [S_IF(a)] (paper, Sec. 2) as a record: a row of a
    {!Plist.t}. *)

type t = posting array
(** Strictly increasing by node id. *)

val row : Plist.t -> int -> posting
(** Row [i] of a list. *)

val of_plist : Plist.t -> t

val to_plist : t -> Plist.t
(** @raise Invalid_argument unless strictly increasing by node id. *)

val lower_bound : t -> int -> int
(** Index of the first posting with node id ≥ the argument. *)

val find : t -> int -> posting option
val mem : t -> int -> bool

val inter : t -> t -> t
val union : t -> t -> t

val inter_many : t list -> t
(** @raise Invalid_argument on the empty family, with the same message as
    {!Plist_stream.inter_many} (the contract is
    shared — see the "degenerate queries" note in DESIGN.md). *)

val union_with_counts : t list -> (posting * int) array

val restrict : t -> int array -> t
