module IF = Invfile.Inverted_file
module Plist = Invfile.Plist
module E = Containment.Engine
module Sem = Containment.Semantics
module Embed = Containment.Embed
module Query = Containment.Query

let src = Logs.Src.create "nscq.join" ~doc:"set-containment join engine"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  engine : E.config;
  max_depth : int;
  cut_candidates : int;
  cut_fanout : int;
}

let default =
  { engine = E.default; max_depth = 32; cut_candidates = 8; cut_fanout = 1 }

type stats = {
  outer : int;
  fast_path : int;
  preflight_rejected : int;
  fallback : int;
  tree_nodes : int;
  nodes_expanded : int;
  intersections_shared : int;
  intersections_recomputed : int;
  limit_cuts : int;
  candidates_checked : int;
  pairs : int;
}

type result = { pairs : (int * int) list; stats : stats }

(* --- process-wide totals (metrics registry) --- *)

let totals_mu = Lockdep.create "join.totals"

type totals = {
  mutable t_joins : int;
  mutable t_nodes_expanded : int;
  mutable t_shared : int;
  mutable t_recomputed : int;
  mutable t_cuts : int;
  mutable t_pairs : int;
  mutable t_fallback : int;
}

let totals =
  {
    t_joins = 0;
    t_nodes_expanded = 0;
    t_shared = 0;
    t_recomputed = 0;
    t_cuts = 0;
    t_pairs = 0;
    t_fallback = 0;
  }
[@@lint.guarded_by totals_mu]

let totals_race = Racesan.register ~name:"join.totals" ~lock:totals_mu

let record_totals s =
  Lockdep.protect totals_mu (fun () ->
      Racesan.check totals_race;
      totals.t_joins <- totals.t_joins + 1;
      totals.t_nodes_expanded <- totals.t_nodes_expanded + s.nodes_expanded;
      totals.t_shared <- totals.t_shared + s.intersections_shared;
      totals.t_recomputed <- totals.t_recomputed + s.intersections_recomputed;
      totals.t_cuts <- totals.t_cuts + s.limit_cuts;
      totals.t_pairs <- totals.t_pairs + s.pairs;
      totals.t_fallback <- totals.t_fallback + s.fallback)

let register reg =
  let module M = Obs.Metrics in
  let cb ?help name f =
    M.register_callback reg ?help ~kind:`Counter name (fun () ->
        float_of_int
          (Lockdep.protect totals_mu (fun () ->
               Racesan.check totals_race;
               f ())))
  in
  cb "nscq_join_total" (fun () -> totals.t_joins)
    ~help:"Containment joins executed";
  cb "nscq_join_nodes_expanded_total" (fun () -> totals.t_nodes_expanded)
    ~help:"Prefix-tree nodes whose candidate intersection was computed";
  cb "nscq_join_intersections_shared_total" (fun () -> totals.t_shared)
    ~help:"Prefix intersections reused by a sibling query instead of redone";
  cb "nscq_join_intersections_recomputed_total" (fun () -> totals.t_recomputed)
    ~help:"Posting-list intersections actually performed";
  cb "nscq_join_limit_cuts_total" (fun () -> totals.t_cuts)
    ~help:"Subtrees finished early by a LIMIT+ depth/candidate/fanout cut";
  cb "nscq_join_pairs_total" (fun () -> totals.t_pairs)
    ~help:"Result pairs emitted by joins";
  cb "nscq_join_fallback_queries_total" (fun () -> totals.t_fallback)
    ~help:"Outer queries answered by the per-query engine fallback"

(* Lookup deltas of [f], on the innermost open span. *)
let with_io ?trace inv f =
  Storage.Io_stats.attribute ?trace (IF.lookup_stats inv) f

(* --- per-atom root lists ---

   Postings are per *node* (one per internal node with a leaf labelled by
   the atom), but the join's unit of answer is the *record*: the atoms of
   one outer set may occur at different nodes of the same record, so
   intersecting node-level lists would be unsound at the record level.
   Each atom's list is therefore lifted once to its sorted, deduplicated
   array of record roots and memoized — every tree node touching the atom
   reuses the lift. Plain int arrays, not postings: candidate sets are
   intersected far more often than they are built, and an int compare per
   step beats chasing posting records. *)

(* Confined to one [join] call on one domain (Router gives each shard its
   own call), so unsynchronized on purpose: the build phase keys every
   atom of every query through here, and even an uncontended lock acquire
   per probe is measurable. The shared mutable state that outlives a call
   — [totals] — stays under [totals_mu]. *)
type memo = {
  node_table : (string, int array) Hashtbl.t;
      (* atom -> ascending node ids carrying it as a direct leaf *)
  root_table : (string, int array) Hashtbl.t;
      (* atom -> ascending record-root ids whose subtree carries it *)
  present : (string, bool) Hashtbl.t;  (* memoized key-existence probes *)
  roots : int array;  (* ascending record-root node ids *)
}

let make_memo inv =
  {
    node_table = Hashtbl.create 256;
    root_table = Hashtbl.create 256;
    present = Hashtbl.create 256;
    roots = IF.roots inv;
  }

let atom_present inv memo atom =
  match Hashtbl.find_opt memo.present atom with
  | Some b -> b
  | None ->
    let b = IF.mem_atom inv atom in
    Hashtbl.add memo.present atom b;
    b

let node_list inv memo atom =
  match Hashtbl.find_opt memo.node_table atom with
  | Some l -> l
  | None ->
    let pl = IF.lookup inv atom in
    let l = Plist.nodes pl in
    Hashtbl.add memo.node_table atom l;
    l

(* Greatest index with [roots.(i) <= id], given the invariant
   [roots.(lo) <= id]: gallop forward from [lo], then bisect. Postings
   ascend by node id, so successive calls pass a non-decreasing cursor
   and the whole lift is near-linear. *)
let root_index_from roots lo id =
  let n = Array.length roots in
  if lo + 1 >= n || roots.(lo + 1) > id then lo
  else begin
    let lo = ref (lo + 1) and step = ref 1 in
    let hi = ref (!lo + 1) in
    while !hi < n && roots.(!hi) <= id do
      lo := !hi;
      hi := !hi + !step;
      step := !step * 2
    done;
    let hi = ref (min !hi n) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if roots.(mid) <= id then lo := mid else hi := mid
    done;
    !lo
  end

let root_list inv memo atom =
  match Hashtbl.find_opt memo.root_table atom with
  | Some l -> l
  | None ->
    (* derive from the node list — one storage decode per distinct atom
       even when flat and nested queries share it *)
    let nl = node_list inv memo atom in
    let m = Array.length nl in
    let l =
      if m = 0 then [||]
      else begin
        (* node ids ascend and records own contiguous id ranges, so the
           mapped roots ascend too — dedupe in one pass *)
        let buf = Array.make m 0 in
        let k = ref 0 and cursor = ref 0 and last = ref (-1) in
        Array.iter
          (fun id ->
            cursor := root_index_from memo.roots !cursor id;
            let r = memo.roots.(!cursor) in
            if r <> !last then begin
              buf.(!k) <- r;
              incr k;
              last := r
            end)
          nl;
        Array.sub buf 0 !k
      end
    in
    Hashtbl.add memo.root_table atom l;
    l

(* --- eligibility ---

   The prefix tree is a record-level *atom* filter: sound only when every
   query atom must occur in a matching record, i.e. under the containment
   join (any embedding — even Homeo_full keeps leaf values inside the
   image's subtree), at root scope, without wildcard patterns. Everything
   else — and atomless queries, whose candidate set is the whole
   collection — takes the per-query engine loop, so the contract
   [join ≡ naive loop] holds for every configuration. *)

let config_fast_path (ec : E.config) =
  (match ec.E.scope with E.Roots -> true | E.Anywhere -> false)
  && match ec.E.join with
     | Sem.Containment -> true
     | Sem.Equality | Sem.Superset | Sem.Overlap _ | Sem.Similarity _ -> false

let query_fast_path (ec : E.config) atoms =
  (match atoms with [] -> false | _ :: _ -> true)
  && not (ec.E.wildcards && List.exists Sem.is_pattern atoms)

(* --- the join --- *)

let pair_compare (o1, r1) (o2, r2) =
  if o1 <> o2 then Int.compare o1 o2 else Int.compare r1 r2

let join ?(config = default) ?trace inv values =
  let ec = config.engine in
  let vs = Array.of_list values in
  (* compile every outer value up front: verification needs the prepared
     query, and an atom outer value must raise exactly as Engine.query
     does *)
  let qs = Array.map Query.of_value vs in
  let n_outer = Array.length vs in
  let memo = make_memo inv in
  (* Two trees, one per candidate-list kind. A flat query (one query
     node) intersecting *node*-level lists — all of its atoms as direct
     leaves of one root node — is exactly flat containment under a
     child-preserving embedding, so the tree's answer is final: no oracle,
     no record decode. Under Homeo_full a flat query instead needs its
     atoms anywhere below the root, which is exactly the *root*-list
     intersection — also final. Nested queries intersect root lists as a
     necessary filter and finish with the Embed oracle. *)
  let node_tree = Prefix_tree.create () in
  let root_tree = Prefix_tree.create () in
  let flat_exact =
    Array.map
      (fun (q : Query.t) ->
        match q.Query.children with [] -> true | _ :: _ -> false)
      qs
  in
  let full_homeo =
    match ec.E.embedding with
    | Sem.Homeo_full -> true
    | Sem.Hom | Sem.Iso | Sem.Homeo -> false
  in
  let sorted_atoms = Array.make (max n_outer 1) [||] in
  let fallback = ref [] in
  let fast = ref 0 and preflighted = ref 0 in
  (* Phase 1: fetch each distinct atom's list once, sort each query's
     atoms rarest-first (global order: ascending list length, ties by
     atom), thread into its tree. A query naming an atom the collection
     has nowhere at all cannot match any record under containment — key
     existence is far cheaper than decoding even one posting list, so
     such queries end here (cf. Engine's preflight). *)
  Obs.Phase.run ?trace Build_tree (fun () ->
      with_io ?trace inv @@ fun () ->
      let use_fast = config_fast_path ec in
      Array.iteri
        (fun qi v ->
          let atoms = Nested.Value.atom_universe v in
          if use_fast && query_fast_path ec atoms then begin
            incr fast;
            if List.for_all (atom_present inv memo) atoms then begin
              let in_node_tree = flat_exact.(qi) && not full_homeo in
              let length_of a =
                if in_node_tree then Array.length (node_list inv memo a)
                else Array.length (root_list inv memo a)
              in
              let keyed = List.map (fun a -> (length_of a, a)) atoms in
              let sorted =
                List.sort
                  (fun (la, aa) (lb, ab) ->
                    if la <> lb then Int.compare la lb
                    else String.compare aa ab)
                  keyed
                |> List.map snd
              in
              sorted_atoms.(qi) <- Array.of_list sorted;
              Prefix_tree.insert
                (if in_node_tree then node_tree else root_tree)
                qi sorted
            end
            else incr preflighted
          end
          else fallback := qi :: !fallback)
        vs;
      Obs.Trace.opt_attr trace "outer" (string_of_int n_outer);
      Obs.Trace.opt_attr trace "fast_path" (string_of_int !fast);
      Obs.Trace.opt_attr trace "preflight_rejected" (string_of_int !preflighted);
      Obs.Trace.opt_attr trace "fallback" (string_of_int (List.length !fallback));
      Obs.Trace.opt_attr trace "distinct_atoms"
        (string_of_int
           (Hashtbl.length memo.node_table + Hashtbl.length memo.root_table));
      Obs.Trace.opt_attr trace "node_tree_nodes"
        (string_of_int (Prefix_tree.node_count node_tree));
      Obs.Trace.opt_attr trace "root_tree_nodes"
        (string_of_int (Prefix_tree.node_count root_tree)));
  let fallback = List.rev !fallback in
  (* Phase 2: one DFS per tree. A node's candidate list is the
     intersection of its prefix's lists, computed once and shared by
     every query in its subtree; only the current path's lists are live.
     Expansion stops (LIMIT+) at the depth cap, when candidates are few,
     or when sharing drops below the fanout threshold — the queries below
     finish on the candidates accumulated so far, each emission recording
     how many of its atoms the candidate list already accounts for. *)
  let pending_node = ref [] and pending_root = ref [] in
  let nodes_expanded = ref 0
  and shared = ref 0
  and recomputed = ref 0
  and cuts = ref 0 in
  Obs.Phase.run ?trace Intersect (fun () ->
      with_io ?trace inv @@ fun () ->
      let walk tree list_of init pending =
        let emit qi cand depth = pending := (qi, cand, depth) :: !pending in
        let cut_here depth (n : Prefix_tree.node) cand =
          (config.max_depth > 0 && depth >= config.max_depth)
          || Array.length cand <= config.cut_candidates
          || n.Prefix_tree.subtree < config.cut_fanout
        in
        let rec visit depth cand (n : Prefix_tree.node) =
          List.iter (fun qi -> emit qi cand depth) n.Prefix_tree.endpoints;
          match Prefix_tree.sorted_children n with
          | [] -> ()
          | kids ->
            if Array.length cand = 0 then
              (* empty prefix: every query below has no matches *)
              ()
            else if cut_here depth n cand then begin
              incr cuts;
              List.iter
                (fun kid ->
                  List.iter
                    (fun qi -> emit qi cand depth)
                    (Prefix_tree.endpoints_below kid))
                kids
            end
            else
              List.iter
                (fun (kid : Prefix_tree.node) ->
                  let l = list_of kid.Prefix_tree.atom in
                  incr nodes_expanded;
                  incr recomputed;
                  shared := !shared + (kid.Prefix_tree.subtree - 1);
                  visit (depth + 1) (Containment.Intset.inter cand l) kid)
                kids
        in
        List.iter
          (fun (kid : Prefix_tree.node) ->
            (* depth 1: the candidate list is the atom's own list — a
               lookup, not an intersection *)
            let cand = init (list_of kid.Prefix_tree.atom) in
            incr nodes_expanded;
            shared := !shared + (kid.Prefix_tree.subtree - 1);
            visit 1 cand kid)
          (Prefix_tree.sorted_children (Prefix_tree.root tree))
      in
      (* node-level candidates live at record roots from depth 1 on:
         restricting the rarest atom's list up front keeps every later
         intersection within root nodes *)
      walk node_tree (node_list inv memo)
        (fun l -> Containment.Intset.inter l memo.roots)
        pending_node;
      walk root_tree (root_list inv memo) (fun l -> l) pending_root;
      Obs.Trace.opt_attr trace "nodes_expanded" (string_of_int !nodes_expanded);
      Obs.Trace.opt_attr trace "intersections_shared" (string_of_int !shared);
      Obs.Trace.opt_attr trace "intersections_recomputed" (string_of_int !recomputed);
      Obs.Trace.opt_attr trace "limit_cuts" (string_of_int !cuts));
  (* Phase 3: finish what the trees could not. A flat query cut short
     finishes by probing each remaining (hot) atom's list — one binary
     search per atom, no record decode; a flat query whose whole atom
     sequence was intersected emits its candidates as they stand. Nested
     queries check each candidate with the Embed oracle — the same check
     Engine's ~verify path runs, so a cut at any point is exact — and the
     fallback queries run through the engine itself. *)
  (* each query is routed to exactly one finishing path, which emits its
     record ids in one run — per-query buckets make the final pair list a
     concatenation, not a global sort over every pair *)
  let results = Array.make (max n_outer 1) [] and checked = ref 0 in
  let emit_pair qi rid = results.(qi) <- rid :: results.(qi) in
  Obs.Phase.run ?trace Verify (fun () ->
      with_io ?trace inv @@ fun () ->
      let finish_flat list_of (qi, cand, consumed) =
        let atoms = sorted_atoms.(qi) in
        let n_atoms = Array.length atoms in
        if consumed >= n_atoms then
          Array.iter
            (fun nd -> emit_pair qi (IF.record_of_root inv nd))
            cand
        else begin
          (* fetch each remaining atom's list once, not once per candidate *)
          let rest =
            Array.init (n_atoms - consumed) (fun i ->
                list_of atoms.(consumed + i))
          in
          let n_rest = Array.length rest in
          Array.iter
            (fun nd ->
              incr checked;
              let ok = ref true and i = ref 0 in
              while !ok && !i < n_rest do
                if not (Containment.Intset.mem rest.(!i) nd) then ok := false;
                incr i
              done;
              if !ok then emit_pair qi (IF.record_of_root inv nd))
            cand
        end
      in
      List.iter (finish_flat (node_list inv memo)) !pending_node;
      (* decode each candidate record once per join, not once per check —
         hot records are shared by many queries *)
      let trees : (int, Nested.Tree.t) Hashtbl.t = Hashtbl.create 64 in
      let tree_of rid =
        match Hashtbl.find_opt trees rid with
        | Some t -> t
        | None ->
          let t = IF.record_tree inv rid in
          Hashtbl.add trees rid t;
          t
      in
      List.iter
        (fun ((qi, cand, _) as entry) ->
          if flat_exact.(qi) then finish_flat (root_list inv memo) entry
          else begin
            let checker =
              Embed.prepare ~wildcards:ec.E.wildcards ec.E.join
                ec.E.embedding qs.(qi)
            in
            Array.iter
              (fun root ->
                incr checked;
                let rid = IF.record_of_root inv root in
                if Embed.run checker ~s:(tree_of rid) root then
                  emit_pair qi rid)
              cand
          end)
        !pending_root;
      List.iter
        (fun qi ->
          let r = E.query ~config:ec inv vs.(qi) in
          List.iter (fun rid -> emit_pair qi rid) r.E.records)
        fallback;
      Obs.Trace.opt_attr trace "candidates_checked" (string_of_int !checked);
      Obs.Trace.opt_attr trace "fallback_queries"
        (string_of_int (List.length fallback));
      Obs.Trace.opt_attr trace "pairs"
        (string_of_int
           (Array.fold_left (fun n l -> n + List.length l) 0 results)));
  (* buckets hold each query's ids newest-first; a descending sort is
     near-linear on that and shields against any non-monotone emitter *)
  let n_pairs = ref 0 in
  let pairs =
    let acc = ref [] in
    for qi = n_outer - 1 downto 0 do
      List.iter
        (fun rid ->
          incr n_pairs;
          acc := (qi, rid) :: !acc)
        (List.sort (fun a b -> Int.compare b a) results.(qi))
    done;
    !acc
  in
  let stats =
    {
      outer = n_outer;
      fast_path = !fast;
      preflight_rejected = !preflighted;
      fallback = List.length fallback;
      tree_nodes =
        Prefix_tree.node_count node_tree + Prefix_tree.node_count root_tree;
      nodes_expanded = !nodes_expanded;
      intersections_shared = !shared;
      intersections_recomputed = !recomputed;
      limit_cuts = !cuts;
      candidates_checked = !checked;
      pairs = !n_pairs;
    }
  in
  record_totals stats;
  Log.debug (fun m ->
      m
        "join: %d outer (%d fast, %d fallback), %d tree nodes, %d expanded, \
         %d shared, %d cuts, %d pairs"
        stats.outer stats.fast_path stats.fallback stats.tree_nodes
        stats.nodes_expanded stats.intersections_shared stats.limit_cuts
        stats.pairs);
  { pairs; stats }

(* --- explain (Obs.Explain) ---

   The join's profile mirrors the per-query engine's: run once under an
   internal trace, then read the measured counts back out of the phase
   spans themselves, so the numbers reconcile exactly with what an
   independent traced run would report. Estimates are the static upper
   bounds the adaptive cuts work against: every outer query could take
   the fast path, every tree node could be expanded, and every checked
   candidate could survive. *)

let explain ?(config = default) ?(target = "join") inv values =
  let trace = Obs.Trace.create "explain-join" in
  let result = join ~config ~trace inv values in
  let root = Obs.Trace.finish trace in
  let geti = Obs.Explain.int_attr and notes = Obs.Explain.notes in
  let n_outer = List.length values in
  (* the tree-size attrs land on build-tree — intersect's static bound *)
  let tree_nodes = ref (-1) in
  let phases =
    Obs.Explain.phases_of_trace
      (fun p s ->
        match p with
        | Obs.Phase.Build_tree ->
          let n = geti s "node_tree_nodes" and r = geti s "root_tree_nodes" in
          if n >= 0 && r >= 0 then tree_nodes := n + r;
          ( n_outer, geti s "fast_path",
            notes s [ "preflight_rejected"; "fallback"; "distinct_atoms" ] )
        | Intersect ->
          ( !tree_nodes, geti s "nodes_expanded",
            notes s
              [ "intersections_shared"; "intersections_recomputed";
                "limit_cuts" ] )
        | Verify ->
          ( geti s "candidates_checked", geti s "pairs",
            notes s [ "fallback_queries" ] )
        | Minimize | Preflight | Prefilter | Prefetch | Retrieve | Eval ->
          (-1, -1, []))
      root
  in
  let atoms =
    List.concat_map Nested.Value.atom_universe values
    |> List.sort_uniq String.compare
    |> List.map (E.atom_plan inv)
    |> List.stable_sort (fun (a : Obs.Explain.atom_plan) b ->
           Int.compare a.Obs.Explain.list_len b.Obs.Explain.list_len)
  in
  let query =
    match values with
    | [ v ] -> Nested.Syntax.to_string v
    | vs -> Printf.sprintf "<%d outer values>" (List.length vs)
  in
  let config_kvs =
    [
      ("join", "containment-join");
      ("max_depth", string_of_int config.max_depth);
      ("cut_candidates", string_of_int config.cut_candidates);
      ("cut_fanout", string_of_int config.cut_fanout);
    ]
  in
  Obs.Explain.make ~target ~query ~config:config_kvs ~atoms ~phases
    ~records:result.stats.pairs ()

let naive ?config inv values =
  E.containment_join ?config inv values
  |> List.concat_map (fun (qi, records) ->
         List.map (fun rid -> (qi, rid)) records)
  |> List.sort pair_compare

let group ~outer pairs =
  let buckets = Array.make (max outer 0) [] in
  List.iter
    (fun (qi, rid) ->
      if qi < 0 || qi >= outer then
        invalid_arg "Join.Engine.group: pair outside the outer range";
      buckets.(qi) <- rid :: buckets.(qi))
    pairs;
  Array.to_list (Array.map List.rev buckets)
