type join = Containment | Equality | Superset | Overlap of int | Similarity of float

type embedding = Hom | Iso | Homeo | Homeo_full

type cover = Exists_child | Exists_distinct | All_data_children

type edge = Child | Descendant

type mode = {
  gen :
    Invfile.Inverted_file.t -> ?parents_of:Invfile.Plist.idset -> Query.node ->
    Invfile.Plist.t;
  cover : cover;
  edge : edge;
  leafless_is_universe : bool;
}

exception Unsupported of string

(* One cursor per leaf label: decoded lists where the cache holds or
   keeps them, undecoded payloads elsewhere (Inverted_file.cursor). *)
let cursors inv (n : Query.node) =
  Array.to_list (Array.map (Invfile.Inverted_file.cursor inv) n.Query.leaves)

module P = Invfile.Plist
module St = Invfile.Plist_stream

let union_with_counts inv n = St.union_with_counts (cursors inv n)

(* The candidate universe for a query node that constrains nothing (no
   leaf labels): every internal node. Normally the memoized node table;
   when the collection was built without one, derive it from the stored
   records instead of crashing — degenerate queries are the only path
   that needs the universe, so the O(data) rebuild is acceptable and
   keeps [Engine.query {}] total on every store. *)
let universe inv =
  match Invfile.Inverted_file.all_nodes inv with
  | l -> l
  | exception Invfile.Inverted_file.Malformed _ ->
    let ix = Invfile.Builder.index () in
    let roots = Invfile.Inverted_file.roots inv in
    Invfile.Inverted_file.iter_records inv (fun record_id value ->
        ignore
          (Invfile.Builder.index_value_at ix ~root:roots.(record_id) ~record_id value));
    Invfile.Builder.index_nodes ix

(* The small side of Alg. 4: a caller that only needs the candidates
   parenting some member of head set [h] passes [~parents_of:h]. When the
   parents are few next to [bound] (a quarter, the bottom-up algorithm's
   threshold), only their rows are produced. *)
let small_side ?parents_of bound =
  match parents_of with
  | Some h when 4 * P.idset_cardinal h < bound -> Some (P.idset_parents h)
  | _ -> None

let within ?parents_of l =
  match small_side ?parents_of (P.length l) with
  | Some ids -> P.restrict l ids
  | None -> l

(* With few parents, they drive the intersection: only the blocks they
   land on are decoded, however long the lists. *)
let intersect ?parents_of cs =
  let bound = List.fold_left (fun m c -> Int.min m (St.remaining c)) max_int cs in
  St.inter_many ?among:(small_side ?parents_of bound) cs

(* q ⊆ s: the node must contain every leaf label of n — the intersection of
   Alg. 2 line 8. A node with no leaf labels constrains nothing, so its
   candidates are the whole node table (our extension; see DESIGN.md). *)
let containment_gen inv ?parents_of (n : Query.node) =
  if Array.length n.Query.leaves = 0 then within ?parents_of (universe inv)
  else intersect ?parents_of (cursors inv n)

(* Fully-homeomorphic candidates: nodes whose *subtree* contains every leaf
   label of n --- the ancestor-or-self closure of each leaf's postings,
   intersected (paper, footnote 4). Parent chains are resolved against the
   node table. *)
let subtree_containment_gen inv ?parents_of (n : Query.node) =
  within ?parents_of
  @@
  if Array.length n.Query.leaves = 0 then universe inv
  else begin
    let table = Invfile.Inverted_file.all_nodes inv in
    let closure c =
      let ids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec up id =
        if id >= 0 && not (Hashtbl.mem ids id) then begin
          Hashtbl.replace ids id ();
          let row = P.find_row table id in
          if row >= 0 then up (P.parent table row)
        end
      in
      while St.head c <> St.eof do
        up (St.head c);
        St.advance c
      done;
      let sorted = Array.of_seq (Hashtbl.to_seq_keys ids) in
      Array.sort Int.compare sorted;
      St.cursor_of_plist (P.restrict table sorted)
    in
    St.inter_many (List.map closure (cursors inv n))
  end

(* q = s strengthens containment with |ℓ(n)| = |ℓ(s)| (Sec. 4.1). We also
   require equal internal-child counts, which equal canonical sets always
   satisfy; the paper stores only leaf counts. *)
let equality_gen inv ?parents_of (n : Query.node) =
  let child_count = Query.child_count n in
  let l =
    P.filter_leaf_count_eq (Query.leaf_label_count n) (containment_gen inv ?parents_of n)
  in
  P.filter (fun i -> P.n_children l i = child_count) l

(* q ⊇ s: keep nodes all of whose leaves are among ℓ(n) — multiset union
   with multiplicity = leaf count (Sec. 4.1). Nodes with no leaves at all
   qualify vacuously but appear in no inverted list (a gap in the paper's
   formulation), so they are merged in from the node table. *)
let superset_gen inv ?parents_of (n : Query.node) =
  within ?parents_of
  @@
  let leafless = P.filter_leaf_count_eq 0 (universe inv) in
  if Array.length n.Query.leaves = 0 then leafless
  else begin
    let l, counts = union_with_counts inv n in
    P.merge (P.filter (fun i -> counts.(i) = P.leaf_count l i) l) leafless
  end

(* Relative overlap: per-node threshold ⌈r·|ℓ(n)|⌉ (with a floor of 1 on
   nodes that have leaves; leafless nodes are unconstrained). *)
let similarity_threshold r n =
  let leaves = Query.leaf_label_count n in
  if leaves = 0 then 0 else max 1 (int_of_float (Float.ceil (r *. float_of_int leaves)))

(* ε-overlap: keep nodes sharing at least ε leaf values with n (Sec. 4.1). *)
let overlap_gen eps inv ?parents_of (n : Query.node) =
  within ?parents_of
  @@
  if Array.length n.Query.leaves < eps then P.empty
  else
    let l, counts = union_with_counts inv n in
    P.filter (fun i -> counts.(i) >= eps) l

let similarity_gen r inv ?parents_of (n : Query.node) =
  let eps = similarity_threshold r n in
  if eps = 0 then within ?parents_of (universe inv)
  else overlap_gen eps inv ?parents_of n

(* Prefix wildcards: a query leaf ending in '*' matches any atom with that
   prefix. Its candidate list is the union of the matching atoms' lists. *)
let is_pattern a = String.length a >= 1 && a.[String.length a - 1] = '*'

let pattern_prefix a = String.sub a 0 (String.length a - 1)

let wildcard_containment_gen inv ?parents_of (n : Query.node) =
  if Array.length n.Query.leaves = 0 then within ?parents_of (universe inv)
  else begin
    let leaf_cursor leaf =
      if not (is_pattern leaf) then Invfile.Inverted_file.cursor inv leaf
      else
        Invfile.Inverted_file.atoms_with_prefix inv (pattern_prefix leaf)
        |> List.map (Invfile.Inverted_file.cursor inv)
        |> St.union_with_counts
        |> fst
        |> St.cursor_of_plist
    in
    intersect ?parents_of (List.map leaf_cursor (Array.to_list n.Query.leaves))
  end

let mode_of ?(wildcards = false) join embedding =
  (if wildcards then
     match join with
     | Containment -> ()
     | Equality | Superset | Overlap _ | Similarity _ ->
       raise (Unsupported "wildcards are defined for the containment join only"));
  let adjust mode =
    if wildcards then { mode with gen = wildcard_containment_gen } else mode
  in
  adjust @@
  let unsupported what = raise (Unsupported what) in
  let leafless_is_universe =
    match join with
    | Containment | Similarity _ -> true
    | Equality | Superset | Overlap _ -> false
  in
  match join, embedding with
  | Containment, Hom ->
    { gen = containment_gen; cover = Exists_child; edge = Child;
      leafless_is_universe }
  | Containment, Iso ->
    { gen = containment_gen; cover = Exists_distinct; edge = Child;
      leafless_is_universe }
  | Containment, Homeo ->
    { gen = containment_gen; cover = Exists_child; edge = Descendant;
      leafless_is_universe }
  | Containment, Homeo_full ->
    { gen = subtree_containment_gen; cover = Exists_child; edge = Descendant;
      leafless_is_universe }
  | (Equality | Superset | Overlap _ | Similarity _), Homeo_full ->
    unsupported "only the containment join is defined under fully-homeomorphic embedding"
  | Equality, Hom ->
    { gen = equality_gen; cover = Exists_child; edge = Child;
      leafless_is_universe }
  | Equality, Iso ->
    { gen = equality_gen; cover = Exists_distinct; edge = Child;
      leafless_is_universe }
  | Equality, Homeo -> unsupported "equality join under homeomorphic embedding"
  | Superset, Hom ->
    { gen = superset_gen; cover = All_data_children; edge = Child;
      leafless_is_universe }
  | Superset, Iso -> unsupported "superset join under isomorphic embedding"
  | Superset, Homeo -> unsupported "superset join under homeomorphic embedding"
  | Overlap eps, _ when eps < 1 -> invalid_arg "Semantics.mode_of: ε must be ≥ 1"
  | Overlap eps, Hom ->
    { gen = overlap_gen eps; cover = Exists_child; edge = Child;
      leafless_is_universe }
  | Overlap eps, Iso ->
    { gen = overlap_gen eps; cover = Exists_distinct; edge = Child;
      leafless_is_universe }
  | Overlap eps, Homeo ->
    { gen = overlap_gen eps; cover = Exists_child; edge = Descendant;
      leafless_is_universe }
  | Similarity r, _ when r <= 0. || r > 1. ->
    invalid_arg "Semantics.mode_of: similarity ratio must be in (0, 1]"
  | Similarity r, Hom ->
    { gen = similarity_gen r; cover = Exists_child; edge = Child;
      leafless_is_universe }
  | Similarity r, Iso ->
    { gen = similarity_gen r; cover = Exists_distinct; edge = Child;
      leafless_is_universe }
  | Similarity r, Homeo ->
    { gen = similarity_gen r; cover = Exists_child; edge = Descendant;
      leafless_is_universe }

let candidates mode ?parents_of inv n = mode.gen inv ?parents_of n

let pp_join ppf = function
  | Containment -> Format.pp_print_string ppf "containment"
  | Equality -> Format.pp_print_string ppf "equality"
  | Superset -> Format.pp_print_string ppf "superset"
  | Overlap e -> Format.fprintf ppf "overlap(ε=%d)" e
  | Similarity r -> Format.fprintf ppf "similarity(r=%.2f)" r

let pp_embedding ppf = function
  | Hom -> Format.pp_print_string ppf "homomorphic"
  | Iso -> Format.pp_print_string ppf "isomorphic"
  | Homeo -> Format.pp_print_string ppf "homeomorphic"
  | Homeo_full -> Format.pp_print_string ppf "fully-homeomorphic"
