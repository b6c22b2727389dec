module P = Invfile.Plist

type stack_item =
  | Marker  (* the 'S' marker of Fig. 5 *)
  | Hset of P.idset
  | All_nodes
      (* the head set of an unconstrained query node (e.g. [{}]): every
         internal node, kept symbolic so the node table is never decoded
         for it *)

(* The stack either lives in memory or spills to disk (paper Sec. 5.1,
   assumption (2): "I/O-efficient solutions for stacks, e.g., as available
   in the open-source STXXL library, can be used off-the-shelf"). *)
type stack =
  | In_memory of stack_item Stack.t
  | External of Storage.Ext_stack.t

let marker_bytes = "M"
let all_nodes_bytes = "A"

let encode_item = function
  | Marker -> marker_bytes
  | All_nodes -> all_nodes_bytes
  | Hset h -> "H" ^ P.idset_to_bytes h

let decode_item s =
  if s = marker_bytes then Marker
  else if s = all_nodes_bytes then All_nodes
  else Hset (P.idset_of_bytes (String.sub s 1 (String.length s - 1)))

let push stack item =
  match stack with
  | In_memory s -> Stack.push item s
  | External s -> Storage.Ext_stack.push s (encode_item item)

let pop stack =
  match stack with
  | In_memory s -> (try Some (Stack.pop s) with Stack.Empty -> None)
  | External s -> Option.map decode_item (Storage.Ext_stack.pop s)

(* Every head set covered by row [i] of [l]: a plain recursion rather
   than [List.for_all] over a partial application, which would allocate
   a closure per candidate row. *)
let rec all_covered edge l i = function
  | [] -> true
  | h :: rest ->
    (match edge with
    | Semantics.Child -> P.covers_child l i h
    | Semantics.Descendant -> P.covers_descendant l i h)
    && all_covered edge l i rest

(* Does row [i] of candidate list [l] cover the child head sets [lists]
   and [alls] children whose head set is every internal node, under
   [mode]? An internal child covers such a child, and a row has an
   internal descendant exactly when it has an internal child. *)
let covers (mode : Semantics.mode) l i lists ~alls =
  match mode.Semantics.cover with
  | Semantics.Exists_child ->
    (alls = 0 || P.n_children l i > 0) && all_covered mode.Semantics.edge l i lists
  | Semantics.Exists_distinct ->
    (* Admissible distinct representatives among the row's internal
       children. *)
    let admissible h =
      Array.to_list (P.children l i)
      |> List.filter (fun c -> P.idset_mem h c)
      |> Array.of_list
    in
    Matching.has_sdr
      (List.map admissible lists @ List.init alls (fun _ -> P.children l i))
  | Semantics.All_data_children ->
    (* Every internal child of the row must appear in some child's head
       set. *)
    let rec all k =
      k >= P.n_children l i
      || (List.exists (fun h -> P.idset_mem h (P.child l i k)) lists && all (k + 1))
    in
    alls > 0 || all 0

(* Alg. 4. [stack] is shared across the recursion, exactly as in the
   paper; each call leaves precisely one head set on top. [root_filter]
   applies only at the query root ([at_root]). *)
let rec interior mode ?root_filter ~at_root inv (n : Query.node) stack =
  push stack Marker;
  List.iter (fun c -> interior mode ?root_filter ~at_root:false inv c stack) n.Query.children;
  let lists, alls =
    let rec drain acc alls =
      match pop stack with
      | Some Marker -> (acc, alls)
      | Some (Hset h) -> drain (h :: acc) alls
      | Some All_nodes -> drain acc (alls + 1)
      | None -> failwith "Bottom_up: stack underflow"
    in
    drain [] 0
  in
  let exists_cover =
    match mode.Semantics.cover with
    | Semantics.Exists_child | Semantics.Exists_distinct -> true
    | Semantics.All_data_children -> false
  in
  let restricted = match root_filter with Some _ when at_root -> true | _ -> false in
  if
    (* An empty child head set dooms Exists covers (Alg. 4, line 10); the
       superset cover can still succeed through other children. *)
    exists_cover && List.exists P.idset_is_empty lists
  then push stack (Hset P.idset_empty)
  else if
    (* An unconstrained query node (no leaves, no children — e.g. [{}])
       matches every internal node. *)
    exists_cover && mode.Semantics.leafless_is_universe && (not restricted)
    && Array.length n.Query.leaves = 0
    && n.Query.children = []
  then push stack All_nodes
  else begin
    (* Small-side optimization: with parent-child edges and at least one
       child head set, every survivor is the parent of a member of the
       smallest head set. When those parents are few, the candidates are
       computed among them only — crucial when query nodes carry atoms
       that occur in most records. *)
    let parents_of =
      match mode.Semantics.edge, lists with
      | Semantics.Child, first :: rest when exists_cover ->
        Some
          (List.fold_left
             (fun acc h -> if P.idset_cardinal h < P.idset_cardinal acc then h else acc)
             first rest)
      | _ -> None
    in
    let candidates = Semantics.candidates mode ?parents_of inv n in
    let candidates =
      match root_filter with
      | Some ids when at_root -> P.restrict candidates ids
      | _ -> candidates
    in
    push stack
      (Hset (P.idset_filter (fun i -> covers mode candidates i lists ~alls) candidates))
  end

let run_on_stack mode ?root_filter inv (q : Query.t) stack =
  interior mode ?root_filter ~at_root:true inv q stack;
  match pop stack with
  | Some (Hset h) -> P.idset_nodes h
  | Some All_nodes -> P.nodes (Semantics.candidates mode inv q)
  | Some Marker | None -> failwith "Bottom_up: marker left on stack"

let run mode ?root_filter ?spill_to inv q =
  match spill_to with
  | None -> run_on_stack mode ?root_filter inv q (In_memory (Stack.create ()))
  | Some path ->
    let ext = Storage.Ext_stack.create ~buffer_items:64 path in
    Fun.protect
      ~finally:(fun () -> Storage.Ext_stack.close ext)
      (fun () -> run_on_stack mode ?root_filter inv q (External ext))
