(** Main-memory inverted-list caches (paper, Sec. 3.3).

    The paper's optimization buffers the inverted lists of the most frequent
    values of [S], subject to a budget counted in {e lists} (250 in all of
    the paper's experiments). Three policies are provided:

    - {!static}: the paper's setting — the top-[capacity] most frequent
      atoms are preloaded and the contents never change;
    - {!lru}: evict the least recently used list;
    - {!lfu}: evict the least frequently used list (dynamic counts).

    The dynamic policies implement the paper's "caching with respect to an
    evolving query workload" future-work variant (Sec. 6). *)

type t

type policy = Static | Lru | Lfu

val create : policy -> capacity:int -> t
(** [capacity] is the maximum number of cached lists; [0] caches nothing. *)

val policy : t -> policy
val capacity : t -> int
val size : t -> int

val find : t -> string -> Plist.t option
(** Updates recency/frequency bookkeeping on hit. *)

val insert : t -> string -> Plist.t -> unit
(** For [Static] this is a no-op unless the cache is below capacity (i.e.
    inserts are only honoured during preloading); for [Lru]/[Lfu] it may
    evict. *)

val admits : t -> bool
(** Whether {!insert} of a new key would keep it: any positive-capacity
    [Lru]/[Lfu] cache (which evicts to make room), a [Static] one only
    while it has a free slot. *)

val preload : t -> (string * Plist.t) list -> unit
(** Fills the cache (up to capacity) regardless of policy. *)

val remove : t -> string -> unit
(** Drops one entry if cached (needed when its inverted list changes). *)

val clear : t -> unit
val cached_atoms : t -> string list
(** Sorted. *)
