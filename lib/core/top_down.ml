module P = Invfile.Plist

let join_for (mode : Semantics.mode) =
  match mode.Semantics.edge with
  | Semantics.Child -> P.join_child
  | Semantics.Descendant -> P.join_descendant

let covers_for (mode : Semantics.mode) =
  match mode.Semantics.edge with
  | Semantics.Child -> P.covers_child
  | Semantics.Descendant -> P.covers_descendant

(* --- the algorithm as published (Alg. 1 and 2) --- *)

let rec interior_paper mode inv children (paths : P.paths) : Intset.t =
  if children = [] then P.heads paths (* Alg. 2, lines 1-2 *)
  else if P.path_count paths = 0 then Intset.empty (* lines 3-4 *)
  else begin
    let roots = ref (P.heads paths) (* line 6 *) in
    List.iter
      (fun (n : Query.node) ->
        let candidates = Semantics.candidates mode inv n (* line 8 *) in
        let paths' = join_for mode paths candidates (* line 9 *) in
        let roots' = interior_paper mode inv n.Query.children paths' (* line 10 *) in
        roots := Intset.inter !roots roots' (* line 11 *))
      children;
    !roots
  end

let root_candidates mode ?root_filter inv q =
  let c = Semantics.candidates mode inv q in
  match root_filter with None -> c | Some ids -> P.restrict c ids

let run_paper mode ?root_filter inv (q : Query.t) =
  (match mode.Semantics.cover with
  | Semantics.Exists_child -> ()
  | Semantics.Exists_distinct | Semantics.All_data_children ->
    raise
      (Semantics.Unsupported
         "top-down (paper variant) is defined for containment-style covers only"));
  let p0 = P.paths_of_candidates (root_candidates mode ?root_filter inv q) in
  interior_paper mode inv q.Query.children p0

(* --- strict variant ---

   Sibling results are intersected per path rather than per head: a path
   (h, m) survives a query child only if m itself (not merely some other
   match under h) has a child/descendant covering it. *)

(* Groups surviving paths by head into idsets of their matched nodes:
   paths are sorted by (head, node), so each head's paths form one run
   whose rows ascend. *)
let group_heads (paths : P.paths) : (int, P.idset) Hashtbl.t =
  let out = Hashtbl.create 64 in
  let n = P.path_count paths in
  let k = ref 0 in
  while !k < n do
    let head = P.path_head paths !k in
    let stop = ref (!k + 1) in
    while !stop < n && P.path_head paths !stop = head do
      incr stop
    done;
    let rows = Array.init (!stop - !k) (fun j -> P.path_row paths (!k + j)) in
    Hashtbl.replace out head (P.idset_of_rows (P.path_list paths) rows);
    k := !stop
  done;
  out

type order = Query_order | Selectivity

(* Child processing order: [Selectivity] evaluates every child's candidate
   list up front and visits the smallest first, so unsatisfiable children
   empty the path set as early as possible (cf. the paper's Sec. 6 remark
   on list intersections and skew). *)
let ordered_children order mode inv (n : Query.node) =
  match order with
  | Query_order -> List.map (fun c -> (c, None)) n.Query.children
  | Selectivity ->
    n.Query.children
    |> List.map (fun c ->
           let cand = Semantics.candidates mode inv c in
           (c, Some cand))
    |> List.sort (fun (_, a) (_, b) ->
           match a, b with
           | Some a, Some b -> Int.compare (P.length a) (P.length b)
           | _ -> 0)

(* Keeps the paths of [paths] whose matched node covers the whole subquery
   below query node [n]; [paths] must already be candidate-matched at [n]. *)
let rec solve_children order mode inv (n : Query.node) (paths : P.paths) : P.paths =
  if P.path_count paths = 0 then paths
  else
    match mode.Semantics.cover with
    | Semantics.Exists_child ->
      List.fold_left
        (fun paths (c, cand) ->
          if P.path_count paths = 0 then paths
          else begin
            let ok = solve_child order mode inv c cand paths in
            let by_head = group_heads ok in
            P.filter_paths
              (fun k ->
                match Hashtbl.find_opt by_head (P.path_head paths k) with
                | None -> false
                | Some h ->
                  covers_for mode (P.path_list paths) (P.path_row paths k) h)
              paths
          end)
        paths
        (ordered_children order mode inv n)
    | Semantics.Exists_distinct ->
      let per_child =
        List.map
          (fun c -> group_heads (solve_child order mode inv c None paths))
          n.Query.children
      in
      let src = P.path_list paths in
      P.filter_paths
        (fun k ->
          let admissible tbl =
            match Hashtbl.find_opt tbl (P.path_head paths k) with
            | None -> [||]
            | Some h ->
              Array.to_list (P.children src (P.path_row paths k))
              |> List.filter (fun d -> P.idset_mem h d)
              |> Array.of_list
          in
          Matching.has_sdr (List.map admissible per_child))
        paths
    | Semantics.All_data_children ->
      (* Per head, the union of nodes covered by some query child. *)
      let unions : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun c ->
          let solved = solve_child order mode inv c None paths in
          for k = 0 to P.path_count solved - 1 do
            let head = P.path_head solved k in
            let prev = Option.value ~default:[] (Hashtbl.find_opt unions head) in
            Hashtbl.replace unions head (P.path_node solved k :: prev)
          done)
        n.Query.children;
      let union_sets = Hashtbl.create (Hashtbl.length unions) in
      Hashtbl.iter (fun h l -> Hashtbl.replace union_sets h (Intset.of_list l)) unions;
      let src = P.path_list paths in
      P.filter_paths
        (fun k ->
          let covered =
            match Hashtbl.find_opt union_sets (P.path_head paths k) with
            | None -> Intset.empty
            | Some s -> s
          in
          Array.for_all (Intset.mem covered) (P.children src (P.path_row paths k)))
        paths

(* Matches query child [c] against the frontier of [paths] and solves its
   subquery, returning the surviving extended paths. [cand] reuses the list
   computed by the selectivity ordering. *)
and solve_child order mode inv (c : Query.node) cand (paths : P.paths) : P.paths =
  let candidates =
    match cand with Some l -> l | None -> Semantics.candidates mode inv c
  in
  let extended = join_for mode paths candidates in
  solve_children order mode inv c extended

let run mode ?root_filter ?(order = Query_order) inv (q : Query.t) =
  let p0 = P.paths_of_candidates (root_candidates mode ?root_filter inv q) in
  P.heads (solve_children order mode inv q p0)
