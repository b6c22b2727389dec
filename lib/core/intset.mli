(** Sorted integer-array sets (node-id sets). *)

type t = int array
(** Strictly increasing. *)

val empty : t
val is_empty : t -> bool
val of_list : int list -> t
(** Sorts and deduplicates. *)

val mem : t -> int -> bool
(** Binary search. *)

val inter : t -> t -> t
(** Walks the smaller set and gallops the larger: O(m · log(n / m)) for
    sizes [m <= n]. *)

val union : t -> t -> t
val subset : t -> t -> bool
val to_list : t -> int list
val cardinal : t -> int
