(** NSCQL — a small query language for nested-set collections.

    A thin, readable surface over {!Engine}: one statement per line,
    keywords case-insensitive, values in the nested-set literal syntax.

    {v
    FIND CONTAINS {USA, {UK, {A, motorbike}}}
    COUNT CONTAINS {gatk} UNDER homeo VIA top-down
    FIND EQUALS {a, {b}} VERIFIED
    FIND WITHIN {a, b, {c, d}}              -- records contained in the value
    FIND OVERLAPS {a, b, c} BY 2
    FIND SIMILAR TO {a, b, c, d} AT 0.5
    FIND CONTAINS {x} ANYWHERE LIMIT 3
    EXPLAIN CONTAINS {USA, {UK}}
    WITNESS CONTAINS {USA, {UK, {A, motorbike}}}
    INSERT {London, UK, {UK, {A}}}
    DELETE 17
    STATS
    v}

    Clause meanings: [UNDER hom|iso|homeo|homeo-full] picks the embedding
    semantics; [VIA bottom-up|top-down|top-down-paper|naive] the algorithm;
    [ANYWHERE] matches at any internal node; [VERIFIED] re-checks matches
    with the oracle; [WILDCARDS] treats trailing-['*'] leaves as atom-prefix
    patterns (containment only); [LIMIT n] caps printed results. *)

type verb = Find | Count | Explain | Witness

type predicate =
  | Contains of Nested.Value.t
  | Equals of Nested.Value.t
  | Within of Nested.Value.t  (** superset join: records contained in the value *)
  | Overlaps of Nested.Value.t * int
  | Similar of Nested.Value.t * float

type statement =
  | Query of {
      verb : verb;
      predicate : predicate;
      embedding : Semantics.embedding;
      algorithm : Engine.algorithm;
      anywhere : bool;
      verified : bool;
      wildcards : bool;  (** [WILDCARDS]: trailing-['*'] prefix patterns *)
      minimized : bool;  (** [MINIMIZED]: rewrite with {!Minimize} first *)
      limit : int option;
    }
  | Insert of Nested.Value.t
  | Delete of int
  | Stats

exception Parse_error of string

val parse : string -> statement
(** @raise Parse_error with a human-readable message. *)

val query_config :
  statement ->
  (Engine.config * verb * Nested.Value.t * int option) option
(** The engine configuration, verb, predicate value and limit a [Query]
    statement denotes; [None] for [Insert]/[Delete]/[Stats]. Lets a
    non-{!Invfile.Inverted_file} execution target (the live store's
    server backend) run NSCQL statements with the same semantics
    {!execute} applies. *)

type outcome =
  | Records of { ids : int list; limit : int option }
  | Count of int
  | Profile of Obs.Explain.t
      (** [EXPLAIN <query>]: the full plan-and-profile
          ({!Engine.explain_profile}) — planned atom order with posting
          stats plus estimated-vs-actual candidate counts per phase *)
  | Witnesses of (int * Embed.witness) list
  | Inserted of int
  | Deleted of bool
  | Stats_report of Invfile.Stats.t

val execute : Invfile.Inverted_file.t -> statement -> outcome
(** @raise Semantics.Unsupported / [Invalid_argument] as {!Engine.query}. *)

val run : Invfile.Inverted_file.t -> string -> (outcome, string) Result.t
(** Parse + execute, with all errors rendered as strings. *)

val pp_outcome :
  collection:Invfile.Inverted_file.t -> Format.formatter -> outcome -> unit
(** Renders an outcome for an interactive session (materializes record
    values for [Records] up to the limit). *)
