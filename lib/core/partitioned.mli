(** Partitioned evaluation: one query answered over a collection split
    into several inverted files.

    The paper's engines answer a query over one inverted file. A shard
    manifest ({!Shard.Router}) and a live store ({!Live.Live_store}) both
    split a collection into several such files — {e parts} — and union
    the per-part answers. Each record lives in exactly one part, so the
    union is exact: evaluate every part, map its local record ids to
    global ones, concatenate in part order. This module is that fan-out,
    written once. *)

type 'src part = {
  label : string;
      (** span and sub-plan name: [shard:<i>], [segment:<file>] or
          [memtable] *)
  src : 'src;
      (** what the per-part function evaluates: the part's
          {!Invfile.Inverted_file}, or a router's shard target (a local
          file or a remote server) *)
  translate : int -> int option;
      (** local record id → global id. [None] drops the id (the live
          store's tombstones); a translation that must not fail raises
          instead (the router's [Shard_failed] on an unmapped id). *)
}

type 'a outcome =
  | Skipped  (** rejected by the relevance test; never evaluated *)
  | Answered of 'a  (** translated result *)
  | Failed of string  (** the per-part function's error *)

val ids : (int -> int option) -> int list -> int list
(** Translates a local id list, dropping [None]s — the [translate] of a
    containment query. *)

val pairs : (int -> int option) -> (int * int) list -> (int * int) list
(** Translates [(outer index, local id)] join pairs the same way. *)

val fan_out :
  ?trace:Obs.Trace.t ->
  ?domains:int ->
  ?relevant:('src part -> bool) ->
  ?detach:('src part -> bool) * ((unit -> unit) -> unit -> unit) ->
  run:(?trace:Obs.Trace.t -> 'src part -> ('a, string) result) ->
  translate:((int -> int option) -> 'a -> 'b) ->
  fold:('acc -> int -> 'src part -> ms:float -> 'b outcome -> 'acc) ->
  'acc -> 'src part list -> 'acc
(** [fan_out ~run ~translate ~fold init parts]:
    - skips the parts [relevant] rejects (default: none);
    - evaluates the others with [run] through {!Parallel.map} on at
      most [domains] domains (default 1: the calling domain, in part
      order). Parts [detach] selects instead run each on their own job,
      started with its spawn function (which returns the job's join)
      before the domain fan-out and joined after it — the router's
      remote shards, which block on a socket rather than compute;
    - times each evaluated part ([ms], wall clock);
    - when [trace] is given, runs each part inside its own sub-trace
      (same trace id, root span named by the part's [label]), adds a
      [failed=<reason>] attribute to a part that returned [Error], and
      after the barrier grafts the finished part spans into [trace]'s
      innermost open span in part order. Skipped parts get no span.
      Without [trace] no trace is allocated;
    - translates each answer with [translate part.translate];
    - folds [fold acc index part ~ms outcome] over every part, in part
      order, in the calling domain.

    An exception raised by [run] propagates as itself once every domain
    and job has been joined — the first in part order — before anything
    is grafted or folded. *)

val answers :
  ?trace:Obs.Trace.t ->
  run:(?trace:Obs.Trace.t -> 'src part -> 'a) ->
  translate:((int -> int option) -> 'a -> 'b) ->
  'src part list -> 'b list
(** {!fan_out} in the calling domain over parts that never fail: the
    translated answers, in part order. *)
