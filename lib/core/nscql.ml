type verb = Find | Count | Explain | Witness

type predicate =
  | Contains of Nested.Value.t
  | Equals of Nested.Value.t
  | Within of Nested.Value.t
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
      wildcards : bool;
      minimized : bool;
      limit : int option;
    }
  | Insert of Nested.Value.t
  | Delete of int
  | Stats

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- tokenizer: words, numbers, and whole {...} literals --- *)

type token = Word of string | Value of Nested.Value.t | Number of string

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  while !i < n do
    let c = input.[!i] in
    if is_space c then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then i := n (* comment *)
    else if c = '{' || c = '"' then begin
      (* a nested-set literal: find its extent by brace depth, respecting
         quoted atoms *)
      let start = !i in
      let depth = ref 0 and in_string = ref false and stop = ref false in
      while not !stop && !i < n do
        (match input.[!i] with
        | '\\' when !in_string -> incr i (* skip the escaped char *)
        | '"' -> in_string := not !in_string
        | '{' when not !in_string -> incr depth
        | '}' when not !in_string ->
          decr depth;
          if !depth = 0 then stop := true
        | _ -> ());
        incr i;
        if !depth = 0 && not !in_string && input.[start] <> '{' then stop := true
      done;
      let literal = String.sub input start (!i - start) in
      match Nested.Syntax.of_string_opt literal with
      | Some v -> tokens := Value v :: !tokens
      | None -> fail "malformed value literal: %s" literal
    end
    else begin
      let start = !i in
      while !i < n && not (is_space input.[!i]) do
        incr i
      done;
      let word = String.sub input start (!i - start) in
      match float_of_string_opt word with
      | Some _ -> tokens := Number word :: !tokens
      | None -> tokens := Word (String.lowercase_ascii word) :: !tokens
    end
  done;
  List.rev !tokens

(* --- parser --- *)

let parse input =
  match tokenize input with
  | [] -> fail "empty statement"
  | Word "stats" :: [] -> Stats
  | Word "insert" :: Value v :: [] ->
    if Nested.Value.is_atom v then fail "INSERT needs a set value" else Insert v
  | Word "delete" :: Number n :: [] -> (
    match int_of_string_opt n with
    | Some id when id >= 0 -> Delete id
    | _ -> fail "DELETE needs a non-negative record id")
  | Word verb_word :: rest ->
    let verb =
      match verb_word with
      | "find" | "select" -> Find
      | "count" -> Count
      | "explain" -> Explain
      | "witness" -> Witness
      | w -> fail "unknown verb %S (expected FIND, COUNT, EXPLAIN, WITNESS, INSERT, DELETE, STATS)" w
    in
    let predicate, rest =
      match rest with
      | Word "contains" :: Value v :: rest -> (Contains v, rest)
      | Word "equals" :: Value v :: rest -> (Equals v, rest)
      | Word "within" :: Value v :: rest -> (Within v, rest)
      | Word "overlaps" :: Value v :: Word "by" :: Number n :: rest -> (
        match int_of_string_opt n with
        | Some eps when eps >= 1 -> (Overlaps (v, eps), rest)
        | _ -> fail "OVERLAPS ... BY needs an integer ≥ 1")
      | Word "similar" :: Word "to" :: Value v :: Word "at" :: Number r :: rest -> (
        match float_of_string_opt r with
        | Some ratio when ratio > 0. && ratio <= 1. -> (Similar (v, ratio), rest)
        | _ -> fail "SIMILAR TO ... AT needs a ratio in (0, 1]")
      | Word w :: _ -> fail "unknown predicate %S" w
      | _ -> fail "expected a predicate (CONTAINS, EQUALS, WITHIN, OVERLAPS, SIMILAR TO)"
    in
    (match predicate with
    | Contains v | Equals v | Within v | Overlaps (v, _) | Similar (v, _) ->
      if Nested.Value.is_atom v then fail "query value must be a set");
    let embedding = ref Semantics.Hom in
    let algorithm = ref Engine.Bottom_up in
    let anywhere = ref false in
    let verified = ref false in
    let wildcards = ref false in
    let minimized = ref false in
    let limit = ref None in
    let rec clauses = function
      | [] -> ()
      | Word "under" :: Word sem :: rest ->
        (embedding :=
           match sem with
           | "hom" -> Semantics.Hom
           | "iso" -> Semantics.Iso
           | "homeo" -> Semantics.Homeo
           | "homeo-full" | "full-homeo" -> Semantics.Homeo_full
           | s -> fail "unknown embedding %S" s);
        clauses rest
      | Word "via" :: Word alg :: rest ->
        (algorithm :=
           match alg with
           | "bottom-up" -> Engine.Bottom_up
           | "top-down" -> Engine.Top_down
           | "top-down-paper" -> Engine.Top_down_paper
           | "naive" -> Engine.Naive_scan
           | s -> fail "unknown algorithm %S" s);
        clauses rest
      | Word "anywhere" :: rest ->
        anywhere := true;
        clauses rest
      | Word "verified" :: rest ->
        verified := true;
        clauses rest
      | Word "wildcards" :: rest ->
        wildcards := true;
        clauses rest
      | Word "minimized" :: rest ->
        minimized := true;
        clauses rest
      | Word "limit" :: Number n :: rest -> (
        match int_of_string_opt n with
        | Some k when k >= 0 ->
          limit := Some k;
          clauses rest
        | _ -> fail "LIMIT needs a non-negative integer")
      | Word w :: _ -> fail "unknown clause %S" w
      | (Value _ | Number _) :: _ -> fail "unexpected literal after the predicate"
    in
    clauses rest;
    Query
      {
        verb;
        predicate;
        embedding = !embedding;
        algorithm = !algorithm;
        anywhere = !anywhere;
        verified = !verified;
        wildcards = !wildcards;
        minimized = !minimized;
        limit = !limit;
      }
  | (Value _ | Number _) :: _ -> fail "statements start with a verb keyword"

(* --- execution --- *)

type outcome =
  | Records of { ids : int list; limit : int option }
  | Count of int
  | Profile of Obs.Explain.t
  | Witnesses of (int * Embed.witness) list
  | Inserted of int
  | Deleted of bool
  | Stats_report of Invfile.Stats.t

let config_of q =
  let join, value =
    match q with
    | `P (Contains v) -> (Semantics.Containment, v)
    | `P (Equals v) -> (Semantics.Equality, v)
    | `P (Within v) -> (Semantics.Superset, v)
    | `P (Overlaps (v, eps)) -> (Semantics.Overlap eps, v)
    | `P (Similar (v, r)) -> (Semantics.Similarity r, v)
  in
  (join, value)

let query_config = function
  | Stats | Insert _ | Delete _ -> None
  | Query
      { verb; predicate; embedding; algorithm; anywhere; verified; wildcards;
        minimized; limit } ->
    let join, value = config_of (`P predicate) in
    let config =
      {
        Engine.default with
        Engine.join;
        embedding;
        algorithm;
        verify = verified;
        wildcards;
        minimize = minimized;
        scope = (if anywhere then Engine.Anywhere else Engine.Roots);
      }
    in
    Some (config, verb, value, limit)

let execute inv stmt =
  match stmt with
  | Stats -> Stats_report (Invfile.Stats.compute inv)
  | Insert v -> Inserted (Invfile.Updater.add_value inv v)
  | Delete id -> Deleted (Invfile.Updater.delete_record inv id)
  | Query { verb; limit; _ } ->
    let config, value =
      match query_config stmt with
      | Some (config, _, value, _) -> (config, value)
      | None -> assert false
    in
    (match verb with
    | Find ->
      Records { ids = (Engine.query ~config inv value).Engine.records; limit }
    | Count -> Count (List.length (Engine.query ~config inv value).Engine.records)
    | Explain -> Profile (Engine.explain_profile ~config inv value)
    | Witness -> Witnesses (Engine.witnesses ~config inv value))

let run inv input =
  match execute inv (parse input) with
  | outcome -> Ok outcome
  | exception Parse_error m -> Error ("parse error: " ^ m)
  | exception Semantics.Unsupported m -> Error ("unsupported: " ^ m)
  | exception Invalid_argument m -> Error ("invalid: " ^ m)
  | exception Invfile.Inverted_file.Malformed m -> Error ("malformed store: " ^ m)

let pp_outcome ~collection ppf = function
  | Records { ids; limit } ->
    let cap = Option.value ~default:10 limit in
    Format.fprintf ppf "%d record(s)@." (List.length ids);
    List.iteri
      (fun i id ->
        if i < cap then
          Format.fprintf ppf "  #%d: %a@." id Nested.Value.pp
            (Invfile.Inverted_file.record_value collection id))
      ids;
    if List.length ids > cap then
      Format.fprintf ppf "  … and %d more (add LIMIT n)@." (List.length ids - cap)
  | Count n -> Format.fprintf ppf "%d@." n
  | Profile p -> Format.fprintf ppf "%s@." (Obs.Explain.render p)
  | Witnesses [] -> Format.fprintf ppf "no matches@."
  | Witnesses ws ->
    List.iteri
      (fun i (root, w) ->
        if i < 3 then begin
          Format.fprintf ppf "match at node %d:@." root;
          List.iter
            (fun (path, id) ->
              Format.fprintf ppf "  %-12s -> node %d = %a@." path id Nested.Value.pp
                (Invfile.Inverted_file.subtree_value collection id))
            w
        end)
      ws;
    if List.length ws > 3 then
      Format.fprintf ppf "… and %d more match(es)@." (List.length ws - 3)
  | Inserted id -> Format.fprintf ppf "record %d inserted@." id
  | Deleted true -> Format.fprintf ppf "deleted@."
  | Deleted false -> Format.fprintf ppf "no such live record@."
  | Stats_report st -> Format.fprintf ppf "%a@." Invfile.Stats.pp st
