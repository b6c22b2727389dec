(** Collection integrity checking.

    Structural invariants of an inverted file, verified against the stored
    record values (the ground truth the index is derived from):

    - no pending {!Journal} undo record (crash recovery has run);
    - metadata decodes; roots ascending; counts consistent; no record
      slots beyond the root count;
    - every record decodes, and its nodes, numbered from its stored root,
      end at or before the next record's root (the last record's at or
      before the node count);
    - every stored postings list, and the node table when present, is
      byte for byte what {!Builder.index} derives from the live records,
      encoded in the payload's own format — so no missing, stale or
      phantom postings, tombstoned records have none, and a payload is
      in the one canonical form {!Plist.to_bytes} writes. A mismatch is
      decoded only to say whether the payload does not decode, is not
      canonical, or diverges from the records.

    Cost is a full scan plus a per-record re-encode — an offline fsck, not
    a query-path check. *)

type problem = { what : string; detail : string }

val check : Inverted_file.t -> problem list
(** Empty when the collection is consistent. *)

val pp_problem : Format.formatter -> problem -> unit
