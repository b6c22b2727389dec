module T = Nested.Tree

(* Query nodes indexed 0 .. count-1 in pre-order. *)
type qidx = {
  q_leaves : string array array;
  q_children : int array array;
  q_values : Nested.Value.t array;  (* canonical subvalue per node *)
}

let index_query (q : Query.t) =
  let acc = ref [] and counter = ref 0 in
  let rec go (n : Query.node) =
    let id = !counter in
    incr counter;
    let child_ids = List.map go n.Query.children in
    acc := (id, n.Query.leaves, Array.of_list child_ids, Query.to_value n) :: !acc;
    id
  in
  let root = go q in
  assert (root = 0);
  let count = !counter in
  let q_leaves = Array.make count [||] in
  let q_children = Array.make count [||] in
  let q_values = Array.make count Nested.Value.empty in
  List.iter
    (fun (id, leaves, children, value) ->
      q_leaves.(id) <- leaves;
      q_children.(id) <- children;
      q_values.(id) <- value)
    !acc;
  { q_leaves; q_children; q_values }

(* Prefix-pattern leaf matching for ~wildcards (containment only). *)
let wildcard_leaf_matches pattern leaves =
  if Semantics.is_pattern pattern then begin
    let prefix = String.sub pattern 0 (String.length pattern - 1) in
    let pl = String.length prefix in
    Array.exists
      (fun leaf -> String.length leaf >= pl && String.sub leaf 0 pl = prefix)
      leaves
  end
  else Array.exists (String.equal pattern) leaves

let wildcard_subset patterns leaves =
  Array.for_all (fun p -> wildcard_leaf_matches p leaves) patterns

(* Sorted string-array helpers. *)
let str_subset a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else
      let c = String.compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) else if c > 0 then go i (j + 1) else false
  in
  go 0 0

let str_common_count a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j acc =
    if i >= la || j >= lb then acc
    else
      let c = String.compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) (acc + 1)
      else if c < 0 then go (i + 1) j acc
      else go i (j + 1) acc
  in
  go 0 0 0

let descendants (s : T.t) (n : T.node) =
  (* All strict descendants: larger pre (= id), smaller post. *)
  T.fold
    (fun acc m -> if m.T.id > n.T.id && m.T.post < n.T.post then m :: acc else acc)
    [] s
  |> List.rev

let check_supported ?wildcards join embedding =
  (* Mirror the combinations Semantics.mode_of defines. *)
  ignore (Semantics.mode_of ?wildcards join embedding)

let matcher ?(wildcards = false) join embedding (qx : qidx) (s : T.t) =
  let memo : (int * int, bool) Hashtbl.t = Hashtbl.create 256 in
  (* subtree leaf labels, memoized per node (fully-homeomorphic checks) *)
  let subtree_leaves_memo : (int, string array) Hashtbl.t = Hashtbl.create 16 in
  let rec subtree_leaves (sn : T.node) =
    match Hashtbl.find_opt subtree_leaves_memo sn.T.id with
    | Some l -> l
    | None ->
      let own = Array.to_list sn.T.leaves in
      let below =
        Array.to_list sn.T.children
        |> List.concat_map (fun c -> Array.to_list (subtree_leaves (T.node s c)))
      in
      let l = Array.of_list (List.sort_uniq String.compare (own @ below)) in
      Hashtbl.replace subtree_leaves_memo sn.T.id l;
      l
  in
  let rec matches qid (sn : T.node) =
    let key = (qid, sn.T.id) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
      (* Seed to terminate on (impossible) cycles; overwritten below. *)
      Hashtbl.replace memo key false;
      let b = node_matches qid sn && children_match qid sn in
      Hashtbl.replace memo key b;
      b
  and node_matches qid sn =
    match join with
    | Semantics.Containment when wildcards -> (
      match embedding with
      | Semantics.Homeo_full -> wildcard_subset qx.q_leaves.(qid) (subtree_leaves sn)
      | Semantics.Hom | Semantics.Iso | Semantics.Homeo ->
        wildcard_subset qx.q_leaves.(qid) sn.T.leaves)
    | Semantics.Containment -> (
      match embedding with
      | Semantics.Homeo_full -> str_subset qx.q_leaves.(qid) (subtree_leaves sn)
      | Semantics.Hom | Semantics.Iso | Semantics.Homeo ->
        str_subset qx.q_leaves.(qid) sn.T.leaves)
    | Semantics.Equality ->
      (* Exact set equality of the whole subtrees; recursion below is then
         redundant but harmless (kept for uniformity). *)
      Nested.Value.equal qx.q_values.(qid) (T.subtree_value s sn.T.id)
    | Semantics.Superset -> str_subset sn.T.leaves qx.q_leaves.(qid)
    | Semantics.Overlap eps -> str_common_count qx.q_leaves.(qid) sn.T.leaves >= eps
    | Semantics.Similarity r ->
      let leaves = Array.length qx.q_leaves.(qid) in
      let eps =
        if leaves = 0 then 0
        else max 1 (int_of_float (Float.ceil (r *. float_of_int leaves)))
      in
      str_common_count qx.q_leaves.(qid) sn.T.leaves >= eps
  and children_match qid sn =
    let q_children = qx.q_children.(qid) in
    let s_children () = Array.to_list (Array.map (T.node s) sn.T.children) in
    let targets () =
      match embedding with
      | Semantics.Homeo | Semantics.Homeo_full -> descendants s sn
      | Semantics.Hom | Semantics.Iso -> s_children ()
    in
    match join, embedding with
    | Semantics.Superset, _ ->
      List.for_all
        (fun d -> Array.exists (fun qc -> matches qc d) q_children)
        (s_children ())
    | _, (Semantics.Hom | Semantics.Homeo | Semantics.Homeo_full) ->
      let ts = targets () in
      Array.for_all (fun qc -> List.exists (fun t -> matches qc t) ts) q_children
    | _, Semantics.Iso ->
      let ts = s_children () in
      let admissible qc =
        List.filter_map (fun t -> if matches qc t then Some t.T.id else None) ts
        |> Array.of_list
      in
      Matching.has_sdr (Array.to_list (Array.map admissible q_children))
  in
  matches

(* --- witness extraction: rerun the match, recording one image per query
   node. The DP table built by [matcher] makes each local choice cheap. *)

type witness = (string * int) list

let witness ?wildcards join embedding ~q ~s id =
  check_supported ?wildcards join embedding;
  let qx = index_query q in
  let m = matcher ?wildcards join embedding qx s in
  let root_node = T.node s id in
  if not (m 0 root_node) then None
  else begin
    (* paths of query nodes in pre-order *)
    let paths = Array.make (Array.length qx.q_leaves) "root" in
    let rec assign_paths qid path =
      paths.(qid) <- path;
      Array.iteri
        (fun i c -> assign_paths c (Printf.sprintf "%s.%d" path i))
        qx.q_children.(qid)
    in
    assign_paths 0 "root";
    let out = ref [] in
    let targets_of sn =
      match embedding with
      | Semantics.Homeo | Semantics.Homeo_full ->
        T.fold
          (fun acc d ->
            if d.T.id > sn.T.id && d.T.post < sn.T.post then d :: acc else acc)
          [] s
        |> List.rev
      | Semantics.Hom | Semantics.Iso ->
        Array.to_list (Array.map (T.node s) sn.T.children)
    in
    let exception No_witness in
    let rec emit qid (sn : T.node) =
      out := (paths.(qid), sn.T.id) :: !out;
      let q_children = qx.q_children.(qid) in
      if Array.length q_children > 0 then begin
        match join, embedding with
        | Semantics.Superset, _ ->
          (* embedding runs data→query; per-query-node images are not
             defined in that direction *)
          raise No_witness
        | _, Semantics.Iso ->
          (* recover a system of distinct representatives greedily with
             backtracking over the (small) sibling sets *)
          let ts = targets_of sn in
          let admissible qc =
            List.filter (fun t -> m qc t) ts
          in
          let rec assign taken = function
            | [] -> Some []
            | qc :: rest ->
              let rec try_candidates = function
                | [] -> None
                | t :: more ->
                  if List.exists (fun u -> u == t) taken then try_candidates more
                  else (
                    match assign (t :: taken) rest with
                    | Some tail -> Some ((qc, t) :: tail)
                    | None -> try_candidates more)
              in
              try_candidates (admissible qc)
          in
          (match assign [] (Array.to_list q_children) with
          | None -> raise No_witness
          | Some pairs -> List.iter (fun (qc, t) -> emit qc t) pairs)
        | _, (Semantics.Hom | Semantics.Homeo | Semantics.Homeo_full) ->
          let ts = targets_of sn in
          Array.iter
            (fun qc ->
              match List.find_opt (fun t -> m qc t) ts with
              | Some t -> emit qc t
              | None -> raise No_witness)
            q_children
      end
    in
    match emit 0 root_node with
    | () -> Some (List.rev !out)
    | exception No_witness -> None
  end

(* A flat query under containment with a child-preserving embedding needs
   no DP: the node's own leaves decide, so no matcher or memo table is
   built. *)
let at_node ?(wildcards = false) join embedding ~q ~s id =
  check_supported ~wildcards join embedding;
  let qx = index_query q in
  let sn = T.node s id in
  match join, embedding with
  | Semantics.Containment, (Semantics.Hom | Semantics.Iso | Semantics.Homeo)
    when Array.length qx.q_children.(0) = 0 ->
    if wildcards then wildcard_subset qx.q_leaves.(0) sn.T.leaves
    else str_subset qx.q_leaves.(0) sn.T.leaves
  | _ -> matcher ~wildcards join embedding qx s 0 sn

let nodes ?wildcards join embedding ~q ~s =
  check_supported ?wildcards join embedding;
  let qx = index_query q in
  let m = matcher ?wildcards join embedding qx s in
  T.fold (fun acc n -> if m 0 n then n.T.id :: acc else acc) [] s
  |> List.rev |> Array.of_list

let contains embedding ~q ~s =
  let alloc = T.allocator () in
  let st = T.of_value alloc ~record_id:0 s in
  at_node Semantics.Containment embedding ~q:(Query.of_value q) ~s:st st.T.root

let check join embedding ~q ~s =
  check_supported join embedding;
  match join with
  | Semantics.Equality -> Nested.Value.equal q s
  | Semantics.Containment | Semantics.Superset | Semantics.Overlap _
  | Semantics.Similarity _ ->
    let alloc = T.allocator () in
    let st = T.of_value alloc ~record_id:0 s in
    at_node join embedding ~q:(Query.of_value q) ~s:st st.T.root
