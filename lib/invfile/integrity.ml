module IF = Inverted_file

type problem = { what : string; detail : string }

let pp_problem ppf p = Format.fprintf ppf "%s: %s" p.what p.detail

(* [None] when [payload] is, byte for byte, [nodes] (only its rows [rows],
   when given) encoded in the payload's own format. Otherwise the payload
   is decoded, only to say what kind of mismatch it is. *)
let mismatch ?rows nodes payload =
  match Plist.codec_of_bytes payload with
  | exception Storage.Codec.Corrupt m -> Some ("does not decode: " ^ m)
  | codec -> (
    if String.equal (Plist.to_bytes ~codec ?rows nodes) payload then None
    else
      match Plist.of_bytes payload with
      | exception Storage.Codec.Corrupt m -> Some ("does not decode: " ^ m)
      | exception _ -> Some "does not decode"
      | stored ->
        if not (String.equal (Plist.to_bytes ~codec stored) payload) then
          Some "is not canonical"
        else
          let want = match rows with Some r -> Array.length r | None -> Plist.length nodes in
          Some
            (Printf.sprintf "diverges from the records (%d vs %d postings)"
               (Plist.length stored) want))

let check inv =
  let problems = ref [] in
  let report what fmt =
    Printf.ksprintf (fun detail -> problems := { what; detail } :: !problems) fmt
  in
  let store = IF.store inv in
  (* 0. no half-applied transaction left behind *)
  if Journal.pending store then
    report "journal" "pending undo record (crash recovery has not run)";
  (* 1. roots ascending, counts sane *)
  let roots = IF.roots inv in
  let n = Array.length roots in
  let derivable = ref true in
  Array.iteri
    (fun i r ->
      if i > 0 && roots.(i - 1) >= r then begin
        derivable := false;
        report "roots" "root ids not strictly increasing at index %d" i
      end)
    roots;
  if n > 0 && roots.(n - 1) >= IF.node_count inv then
    report "roots" "last root beyond the node count";
  (* 1b. no phantom record slots beyond the root count *)
  store.Storage.Kv.iter_keys (fun key ->
      match IF.record_id_of_key key with
      | Some id when id < 0 || id >= n ->
        report "records" "phantom record key %S beyond the root count" key
      | Some _ | None -> ());
  (* 2. the index the stored records imply, derived as a build derives it:
     each record read once and numbered from its stored root *)
  let ix = Builder.index () in
  for id = 0 to n - 1 do
    match IF.record_value_opt inv id with
    | exception (IF.Malformed m | Storage.Codec.Corrupt m) ->
      derivable := false;
      report "records" "record %d unreadable: %s" id m
    | None -> ()
    | Some value -> (
      match Builder.index_value_at ix ~root:roots.(id) ~record_id:id value with
      | exception Invalid_argument _ ->
        derivable := false;
        report "records" "record %d does not re-encode" id
      | next ->
        (* its nodes end at or before the next record's root *)
        let bound = if id + 1 < n then roots.(id + 1) else IF.node_count inv in
        if next > bound then begin
          derivable := false;
          report "records" "record %d ends at node %d, past %s %d" id next
            (if id + 1 < n then "the next root" else "the node count")
            bound
        end)
  done;
  if !derivable then begin
    (* 3. each stored list = the list the records imply, byte for byte *)
    let nodes = Builder.index_nodes ix in
    let expected = Hashtbl.create 1024 in
    Builder.iter_postings ix (Hashtbl.replace expected);
    let seen_atoms = ref 0 in
    store.Storage.Kv.iter (fun key payload ->
        match IF.atom_of_key key with
        | None -> ()
        | Some atom -> (
          incr seen_atoms;
          match Hashtbl.find_opt expected atom with
          | None -> report "postings" "phantom list for %S" atom
          | Some rows ->
            Hashtbl.remove expected atom;
            Option.iter (report "postings" "list of %S %s" atom) (mismatch ~rows nodes payload)));
    Hashtbl.iter (fun atom _ -> report "postings" "missing list for %S" atom) expected;
    if !seen_atoms <> IF.atom_count inv then
      report "counts" "atom count %d, but %d atom keys stored" (IF.atom_count inv)
        !seen_atoms;
    (* 4. node table, when built *)
    Option.iter
      (fun payload -> Option.iter (report "node table" "table %s") (mismatch nodes payload))
      (store.Storage.Kv.get IF.meta_nodes)
  end;
  List.rev !problems
