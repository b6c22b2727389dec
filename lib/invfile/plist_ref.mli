(** Reference inverted-list kernels — the differential-testing oracle.

    A frozen copy of the original materializing set operations: textbook
    sorted-merge intersection/union over decoded posting arrays. The
    cursor kernels of {!Plist_stream} (galloping over in-memory lists,
    block skipping over compressed payloads) are required to produce
    byte-identical results to this module on every input and every mix
    of cursor sources; [test/test_kernels.ml] enforces that with qcheck.

    Not used on any query path. Keep it simple and obviously correct. *)

type t = Posting.t array

val lower_bound : t -> int -> int
(** Index of the first posting with node id ≥ the argument. *)

val find : t -> int -> Posting.t option
val mem : t -> int -> bool

val inter : t -> t -> t
val union : t -> t -> t

val inter_many : t list -> t
(** @raise Invalid_argument on the empty family, with the same message as
    {!Plist_stream.inter_many} (the contract is
    shared — see the "degenerate queries" note in DESIGN.md). *)

val union_with_counts : t list -> (Posting.t * int) array

val restrict : t -> int array -> t
