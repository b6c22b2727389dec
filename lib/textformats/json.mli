(** JSON values, parser, and printer.

    Implemented from scratch (no JSON library ships in the sealed build
    environment); covers the full RFC 8259 value grammar: strings with
    escapes and [\uXXXX] (including surrogate pairs, encoded to UTF-8),
    numbers, booleans, null, arrays, and objects. Used to ingest the
    Twitter-style data set of the paper's Experiment 3. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of { pos : int; message : string }

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_string_opt : string -> t option

val parse_many : string -> t list
(** Newline/whitespace-separated JSON values (JSON-lines collections). *)

val to_string : ?pretty:bool -> t -> string
(** A [Number] that is NaN or infinite prints as [null]. *)

val pp : Format.formatter -> t -> unit

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field lookup. [None] on non-objects and missing fields. *)

val to_list : t -> t list
(** Array elements; [[]] on non-arrays. *)

val equal : t -> t -> bool
(** Structural, with object fields compared order-insensitively. *)
