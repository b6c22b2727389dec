(** One sealed segment of a live store: an immutable, fully-built
    inverted file (a {!Invfile.Merger.merge} product over a
    {!Storage.Log_store}) plus the positional map from its dense local
    record ids back to the global ids of the live collection.

    Segments are never written after sealing — deletes are recorded in
    the live store's tombstone set and physically purged only when
    compaction rewrites the segment — so handles can be handed between
    domains at lock boundaries and reopened freely. *)

type t = {
  file : string;  (** store file name, relative to the live directory *)
  seg_path : string;  (** absolute/joined path of the store file *)
  inv : Invfile.Inverted_file.t;
  ids : int array;
      (** local record id → global record id, strictly ascending. A
          compaction leaves purged records out of its segment, slot and
          entry both; a segment written before purging moved inside the
          merge may still hold tombstoned slots, whose entries remain (the
          map is positional) *)
}

val open_seg :
  wrap:(string -> Storage.Kv.t -> Storage.Kv.t) ->
  dir:string -> Live_manifest.segment -> t
(** Opens a manifest-listed segment.
    @raise Invalid_argument if the id map length disagrees with the
    store's record count.
    @raise Invfile.Inverted_file.Malformed / Failure if the store is
    missing or corrupt. *)

val close : t -> unit

val global : t -> int -> int
(** [global t local] is the global id of local record [local]. *)

val local_of_global : t -> int -> int option
(** Binary search over the id map. *)

val min_gid : t -> int
val max_gid : t -> int
(** Smallest / largest global id held (including purged slots);
    [min_gid > max_gid] (1, 0) for an empty segment. *)

val live_count : t -> int
(** Records not tombstoned in the store itself, by comparing each raw
    slot with the tombstone marker. *)

val to_manifest : t -> Live_manifest.segment
