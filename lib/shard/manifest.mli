(** The shard map: a versioned, checksummed description of how one logical
    collection is split over N independent inverted files.

    A manifest records, per shard, where the shard lives (a local store
    file, or a remote [nscq serve] address reached over the wire
    protocol), its record/atom/node counts, and the translation from
    shard-local record ids (dense, assigned by each shard's own
    {!Invfile.Builder}) back to the global record ids of the logical
    collection. Global ids are what the single-store build of the same
    input would have assigned, so a sharded deployment answers queries
    with exactly the ids the oracle engine reports.

    The on-disk form is binary: a magic prefix, a {!Storage.Codec} body,
    and a trailing CRC-32 ({!Storage.Checksum}) over everything before
    it — a truncated or bit-flipped manifest refuses to load instead of
    silently routing queries to the wrong shards. *)

type backend = [ `Hash | `Btree | `Log ]
(** Storage engine a local shard store was built with; opening it reads
    the format from the store file's own header. *)

type location =
  | Local of { path : string; backend : backend }
  | Remote of { host : string; port : int }
      (** a shard served by a running [nscq serve], queried through
          {!Server.Client} *)

type shard = {
  location : location;
  records : int;  (** live records in the shard *)
  atoms : int;
  nodes : int;
  ids : int array;
      (** shard-local record id → global record id (length [records]) *)
}

type policy = Hash | Round_robin
(** How the partitioner placed records (recorded so [reshard] and
    [shard status] can report it; routing itself never needs it). *)

type t = {
  version : int;
  policy : policy;
  total_records : int;  (** of the logical collection, tombstones included *)
  shards : shard array;
}

exception Corrupt of string
(** The file is not a manifest, fails its checksum, or does not parse. *)

val version : int
(** Manifest format version written by this build (currently 1). *)

val magic : string
(** The 8-byte file prefix identifying a manifest. *)

val make : policy:policy -> total_records:int -> shard list -> t

val save : t -> string -> unit
(** Atomic-ish write: serialize, checksum, write whole. *)

val load : string -> t
(** @raise Corrupt as documented above.
    @raise Sys_error if the file cannot be read. *)

val is_manifest_file : string -> bool
(** [true] iff the file exists and starts with {!magic} — how the CLI
    auto-detects that a [--store] path is really a shard manifest. *)

val id_range : shard -> (int * int) option
(** Smallest and largest global record id held by the shard; [None] when
    empty. *)

val live_records : t -> int
(** Sum of per-shard live record counts. *)

val backend_name : backend -> string
val backend_of_name : string -> backend option

val pp : Format.formatter -> t -> unit
(** Human-readable summary (the body of [nscq shard status]). *)
