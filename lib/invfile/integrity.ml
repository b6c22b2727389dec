module IF = Inverted_file

type problem = { what : string; detail : string }

let pp_problem ppf p = Format.fprintf ppf "%s: %s" p.what p.detail

let check inv =
  let problems = ref [] in
  let report what fmt =
    Printf.ksprintf (fun detail -> problems := { what; detail } :: !problems) fmt
  in
  (* 0. no half-applied transaction left behind *)
  if Journal.pending (IF.store inv) then
    report "journal" "pending undo record (crash recovery has not run)";
  (* 1. roots ascending, counts sane *)
  let roots = IF.roots inv in
  Array.iteri
    (fun i r ->
      if i > 0 && roots.(i - 1) >= r then
        report "roots" "root ids not strictly increasing at index %d" i)
    roots;
  if Array.length roots > 0 && roots.(Array.length roots - 1) >= IF.node_count inv
  then report "roots" "last root beyond the node count";
  (* 1b. no phantom record slots beyond the root count *)
  (let store = IF.store inv in
   store.Storage.Kv.iter (fun key _ ->
       if String.length key > 2 && key.[0] = 'r' && key.[1] = ':' then
         match int_of_string_opt (String.sub key 2 (String.length key - 2)) with
         | Some id when id >= Array.length roots ->
           report "records" "phantom record key %S beyond the root count" key
         | Some _ -> ()
         | None -> report "records" "unparsable record key %S" key));
  (* 2. expected postings from the stored records *)
  let expected : (string, Posting.t list) Hashtbl.t = Hashtbl.create 1024 in
  let expected_nodes = ref [] in
  let wrong_tree = ref false in
  for record_id = 0 to IF.record_count inv - 1 do
    match IF.record_value_opt inv record_id with
    | exception IF.Malformed m ->
      wrong_tree := true;
      report "records" "record %d unreadable: %s" record_id m
    | None -> ()
    | Some value -> (
      match IF.record_tree inv record_id with
      | exception _ ->
        wrong_tree := true;
        report "records" "record %d does not re-encode" record_id
      | tree ->
        if tree.Nested.Tree.root <> roots.(record_id) then
          report "records" "record %d re-encodes at root %d, expected %d" record_id
            tree.Nested.Tree.root roots.(record_id);
        ignore value;
        Nested.Tree.iter
          (fun n ->
            let p = Posting.of_tree_node n in
            expected_nodes := p :: !expected_nodes;
            Array.iter
              (fun leaf ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt expected leaf) in
                Hashtbl.replace expected leaf (p :: prev))
              n.Nested.Tree.leaves)
          tree)
  done;
  if not !wrong_tree then begin
    (* 3. stored lists = expected lists, exactly *)
    let store = IF.store inv in
    let seen_atoms = ref 0 in
    store.Storage.Kv.iter (fun key payload ->
        if String.length key > 0 && key.[0] = 'a' then begin
          incr seen_atoms;
          let atom = String.sub key 1 (String.length key - 1) in
          match Plist.of_bytes payload with
          | exception Storage.Codec.Corrupt m ->
            report "postings" "list of %S does not decode: %s" atom m
          | exception _ -> report "postings" "list of %S does not decode" atom
          | stored -> (
            (* canonical bytes: every writer emits to_bytes of the decoded
               list, and the decoder accepts only that form (so a decoded
               list is strictly sorted too); the round trip re-checks it *)
            (match Plist.codec_of_bytes payload with
            | codec ->
              if not (String.equal (Plist.to_bytes ~codec stored) payload) then
                report "postings" "payload of %S is not canonical" atom
            | exception _ -> report "postings" "payload of %S has no codec tag" atom);
            match Hashtbl.find_opt expected atom with
            | None ->
              report "postings" "phantom list for %S (%d postings)" atom
                (Plist.length stored)
            | Some rev ->
              let want = Array.of_list (List.rev rev) in
              Array.sort Posting.compare want;
              if Plist.to_postings stored <> want then
                report "postings" "list of %S diverges from the records (%d vs %d)"
                  atom (Plist.length stored) (Array.length want);
              Hashtbl.remove expected atom)
        end);
    Hashtbl.iter
      (fun atom _ -> report "postings" "missing list for %S" atom)
      expected;
    if !seen_atoms <> IF.atom_count inv then
      report "counts" "atom count %d, but %d atom keys stored" (IF.atom_count inv)
        !seen_atoms;
    (* 4. node table *)
    (match IF.all_nodes inv with
    | exception IF.Malformed _ -> () (* not built: fine *)
    | table ->
      let want = Array.of_list !expected_nodes in
      Array.sort Posting.compare want;
      if Plist.to_postings table <> want then
        report "node table" "table has %d nodes, records imply %d"
          (Plist.length table) (Array.length want))
  end;
  List.rev !problems
