let scan ?wildcards ?(join = Semantics.Containment) ?(embedding = Semantics.Hom)
    ?(scope = `Roots) inv q =
  let out = ref [] in
  for record_id = 0 to Invfile.Inverted_file.record_count inv - 1 do
    (* tombstoned (deleted) records are skipped by the scan *)
    match Invfile.Inverted_file.record_tree_opt inv record_id with
    | None -> ()
    | Some tree -> (
      match scope with
      | `Roots ->
        if Embed.at_node ?wildcards join embedding ~q ~s:tree tree.Nested.Tree.root
        then out := tree.Nested.Tree.root :: !out
      | `Anywhere ->
        Array.iter
          (fun id -> out := id :: !out)
          (Embed.nodes ?wildcards join embedding ~q ~s:tree))
  done;
  Intset.of_list !out

let matching_records ?join ?embedding inv q =
  Intset.to_list (scan ?join ?embedding ~scope:`Roots inv q)
  |> List.map (Invfile.Inverted_file.record_of_root inv)
