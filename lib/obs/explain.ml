(* A structured query plan/profile: what the engine decided (atom
   retrieval order, posting lengths, codecs) and what actually happened
   (estimated vs. measured candidates per phase). Layers compose by
   nesting: a live store carries one sub-plan per segment, the router
   one per shard, so one tree explains a query end to end. The type is
   deliberately plain data — the engines build it, this module only
   renders and transports it. *)

type atom_plan = {
  atom : string;
  list_len : int; (* postings in S_IF(atom) *)
  bytes : int; (* encoded payload size *)
  codec : string; (* "blocked" | "varint" | "-" *)
  blocks : int; (* blocks in a blocked payload, 0 otherwise *)
}

type phase = {
  phase : string;
  est : int; (* estimated candidates, -1 = not applicable *)
  actual : int; (* measured candidates, -1 = not applicable *)
  ms : float;
  notes : (string * string) list;
}

type t = {
  target : string; (* "store", "live", "segment:...", "shard:N", ... *)
  query : string;
  config : (string * string) list;
  atoms : atom_plan list; (* planned retrieval order, rarest first *)
  phases : phase list;
  records : int; (* result size, -1 = unknown *)
  subs : t list; (* per-segment / per-shard sub-plans *)
}

let make ?(config = []) ?(atoms = []) ?(phases = []) ?(records = -1)
    ?(subs = []) ~target ~query () =
  { target; query; config; atoms; phases; records; subs }

let opt_count n = if n < 0 then "-" else string_of_int n

(* ---- phase rows from a trace ---- *)

let int_attr (s : Trace.span) key =
  match List.assoc_opt key s.Trace.attrs with
  | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
  | None -> -1

let notes (s : Trace.span) keys =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k s.Trace.attrs))
    keys

(* rev_map visits children in order, which [row]'s state relies on *)
let phases_of_trace row (root : Trace.span) =
  List.rev_map
    (fun (s : Trace.span) ->
      let est, actual, notes =
        match Phase.of_name s.Trace.name with
        | Some p -> row p s
        | None -> (-1, -1, [])
      in
      { phase = s.Trace.name; est; actual;
        ms = Float.max 0. s.Trace.duration_s *. 1e3; notes })
    root.Trace.children
  |> List.rev

(* ---- text rendering ---- *)

let render t =
  let buf = Buffer.create 512 in
  let rec go indent t =
    let pad = String.make indent ' ' in
    Buffer.add_string buf
      (Printf.sprintf "%sexplain %s  query=%s  records=%s\n" pad t.target
         t.query (opt_count t.records));
    if t.config <> [] then
      Buffer.add_string buf
        (Printf.sprintf "%s  config %s\n" pad
           (String.concat " "
              (List.map (fun (k, v) -> k ^ "=" ^ v) t.config)));
    if t.atoms <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%s  atoms (rarest first):\n" pad);
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "%s    %-24s len=%-8d bytes=%-8d codec=%s%s\n" pad
               a.atom a.list_len a.bytes a.codec
               (if a.blocks > 0 then Printf.sprintf " blocks=%d" a.blocks
                else "")))
        t.atoms
    end;
    if t.phases <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%s  phases:\n" pad);
      List.iter
        (fun p ->
          let notes =
            match p.notes with
            | [] -> ""
            | l ->
              "  "
              ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
          in
          Buffer.add_string buf
            (Printf.sprintf "%s    %-12s est=%-8s actual=%-8s %8.3f ms%s\n"
               pad p.phase (opt_count p.est) (opt_count p.actual) p.ms notes))
        t.phases
    end;
    List.iter (go (indent + 2)) t.subs
  in
  go 0 t;
  Buffer.contents buf

(* ---- JSON rendering ---- *)

module J = Textformats.Json

let rec json t =
  let int n = J.Number (float_of_int n) in
  let pairs l = J.Object (List.map (fun (k, v) -> (k, J.String v)) l) in
  let atom a =
    J.Object
      [ ("atom", J.String a.atom); ("len", int a.list_len); ("bytes", int a.bytes);
        ("codec", J.String a.codec); ("blocks", int a.blocks) ]
  in
  let phase p =
    J.Object
      [ ("phase", J.String p.phase); ("est", int p.est); ("actual", int p.actual);
        ("ms", J.Number (Float.round (p.ms *. 1e3) /. 1e3)); ("notes", pairs p.notes) ]
  in
  J.Object
    [ ("target", J.String t.target); ("query", J.String t.query); ("records", int t.records);
      ("config", pairs t.config); ("atoms", J.Array (List.map atom t.atoms));
      ("phases", J.Array (List.map phase t.phases)); ("subs", J.Array (List.map json t.subs)) ]

let to_json t = J.to_string (json t)

(* ---- wire form ----

   Line-oriented like Trace.to_wire so it rides the existing text
   payloads: a header line, then per plan node (preorder) one [N] line
   followed by its [C]/[A]/[P] detail lines, all carrying the node's
   depth so of_wire can rebuild the nesting. Free-text fields share
   Trace's %-escaping. *)

let esc = Trace.escape
let unesc = Trace.unescape

let to_wire t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "explain 1\n";
  let kvs l =
    String.concat "\t" (List.map (fun (k, v) -> esc k ^ "=" ^ esc v) l)
  in
  let rec go depth t =
    Buffer.add_string buf
      (Printf.sprintf "N\t%d\t%s\t%d\t%s\n" depth (esc t.target) t.records
         (esc t.query));
    if t.config <> [] then
      Buffer.add_string buf
        (Printf.sprintf "C\t%d\t%s\n" depth (kvs t.config));
    List.iter
      (fun a ->
        Buffer.add_string buf
          (Printf.sprintf "A\t%d\t%s\t%d\t%d\t%s\t%d\n" depth (esc a.atom)
             a.list_len a.bytes (esc a.codec) a.blocks))
      t.atoms;
    List.iter
      (fun p ->
        Buffer.add_string buf
          (Printf.sprintf "P\t%d\t%s\t%d\t%d\t%.0f\t%s\n" depth (esc p.phase)
             p.est p.actual (p.ms *. 1e3) (kvs p.notes)))
      t.phases;
    List.iter (go (depth + 1)) t.subs
  in
  go 0 t;
  Buffer.contents buf

(* A mutable shell during reassembly. *)
type shell = {
  mutable node : t;
  mutable rev_subs : shell list;
}

let of_wire text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | header :: rest
    when String.length header >= 9 && String.sub header 0 8 = "explain " -> (
    let parse_kvs fields =
      List.filter_map
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
            Some
              ( unesc (String.sub f 0 i),
                unesc (String.sub f (i + 1) (String.length f - i - 1)) )
          | None -> None)
        fields
    in
    let stack : (int * shell) list ref = ref [] in
    let root = ref None in
    let ok = ref true in
    let current depth =
      match !stack with
      | (d, sh) :: _ when d = depth -> Some sh
      | _ -> None
    in
    List.iter
      (fun line ->
        if !ok && line <> "" then
          match String.split_on_char '\t' line with
          | "N" :: d :: target :: records :: query :: _ -> (
            match (int_of_string_opt d, int_of_string_opt records) with
            | Some depth, Some records -> (
              let sh =
                {
                  node =
                    make ~records ~target:(unesc target)
                      ~query:(unesc query) ();
                  rev_subs = [];
                }
              in
              (* pop to this node's parent *)
              while
                match !stack with
                | (td, _) :: _ -> td >= depth
                | [] -> false
              do
                stack := List.tl !stack
              done;
              match (!stack, depth) with
              | [], 0 when !root = None ->
                root := Some sh;
                stack := [ (0, sh) ]
              | (pd, parent) :: _, _ when pd = depth - 1 ->
                parent.rev_subs <- sh :: parent.rev_subs;
                stack := (depth, sh) :: !stack
              | _ -> ok := false)
            | _ -> ok := false)
          | "C" :: d :: fields -> (
            match Option.bind (int_of_string_opt d) current with
            | Some sh ->
              sh.node <- { sh.node with config = parse_kvs fields }
            | None -> ok := false)
          | "A" :: d :: atom :: len :: bytes :: codec :: blocks :: _ -> (
            match
              ( Option.bind (int_of_string_opt d) current,
                int_of_string_opt len,
                int_of_string_opt bytes,
                int_of_string_opt blocks )
            with
            | Some sh, Some list_len, Some bytes, Some blocks ->
              let a =
                { atom = unesc atom; list_len; bytes;
                  codec = unesc codec; blocks }
              in
              sh.node <- { sh.node with atoms = sh.node.atoms @ [ a ] }
            | _ -> ok := false)
          | "P" :: d :: phase :: est :: actual :: dur_us :: notes -> (
            match
              ( Option.bind (int_of_string_opt d) current,
                int_of_string_opt est,
                int_of_string_opt actual,
                float_of_string_opt dur_us )
            with
            | Some sh, Some est, Some actual, Some dur ->
              let p =
                { phase = unesc phase; est; actual; ms = dur /. 1e3;
                  notes = parse_kvs notes }
              in
              sh.node <- { sh.node with phases = sh.node.phases @ [ p ] }
            | _ -> ok := false)
          | _ -> ok := false)
      rest;
    match (!ok, !root) with
    | true, Some sh ->
      let rec freeze sh =
        { sh.node with subs = List.rev_map freeze sh.rev_subs }
      in
      Some (freeze sh)
    | _ -> None)
  | _ -> None
