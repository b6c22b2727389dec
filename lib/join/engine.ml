module IF = Invfile.Inverted_file
module Plist = Invfile.Plist
module Stream = Invfile.Plist_stream
module E = Containment.Engine
module Sem = Containment.Semantics
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

(* --- eligibility ---

   The prefix tree answers a query exactly when node-level lists do: a flat
   query (one query node) under a child-preserving embedding matches a
   record iff its root's own leaves cover the query's atoms, i.e. iff the
   root is in every atom's list. That needs the containment join at root
   scope without wildcard patterns. A nested query, or a flat one under
   Homeo_full, may be witnessed at several nodes of one record, so it goes
   to the per-query engine once every atom is known to occur, as does every
   query of any other configuration and every atomless query, whose
   candidate set is the whole collection. The contract [join ≡ naive loop]
   thus holds for every configuration. *)

let config_fast_path (ec : E.config) =
  (match ec.E.scope with E.Roots -> true | E.Anywhere -> false)
  && match ec.E.join with
     | Sem.Containment -> true
     | Sem.Equality | Sem.Superset | Sem.Overlap _ | Sem.Similarity _ -> false

let query_fast_path (ec : E.config) atoms =
  (match atoms with [] -> false | _ :: _ -> true)
  && not (ec.E.wildcards && List.exists Sem.is_pattern atoms)

let tree_answers (ec : E.config) (q : Query.t) =
  (match q.Query.children with [] -> true | _ :: _ -> false)
  &&
  match ec.E.embedding with
  | Sem.Homeo_full -> false
  | Sem.Hom | Sem.Iso | Sem.Homeo -> true

(* --- candidate lists ---

   A candidate list is the ascending record-root ids that carry a prefix's
   atoms as direct leaves. Lists are read through [IF.cursor], so a cached
   list is galloped in place and a payload decodes only the blocks the
   candidates land on; no whole list is copied. *)

let nodes_of l = Array.init (Plist.length l) (Plist.node l)

(* The rows of an atom's list that are record roots: the depth-1 list. *)
let root_rows inv a =
  let c = IF.cursor inv a and acc = ref [] in
  while Stream.head c <> Stream.eof do
    let l = Stream.head_list c and i = Stream.head_row c in
    if Plist.parent l i = -1 then acc := Plist.node l i :: !acc;
    Stream.advance c
  done;
  Array.of_list (List.rev !acc)

(* The candidates whose roots are in every one of [atoms]' lists. *)
let narrow inv cand atoms =
  nodes_of (Stream.inter_many ~among:cand (List.map (IF.cursor inv) atoms))

(* --- the join --- *)

let pair_compare (o1, r1) (o2, r2) =
  if o1 <> o2 then Int.compare o1 o2 else Int.compare r1 r2

(* The join is one resolution scope ([IF.with_query]): every atom it
   touches is pinned once — its cached list, or its payload left
   undecoded — and tree nodes and the engine queries it runs read that
   pin with no further lookup. The pins belong to this call on this
   domain (Router gives each shard its own call); the shared mutable
   state that outlives a call — [totals] — stays under [totals_mu]. *)
let join ?(config = default) ?trace inv values =
  let ec = config.engine in
  let vs = Array.of_list values in
  (* compile every outer value up front: an atom outer value must raise
     exactly as Engine.query does *)
  let qs = Array.map Query.of_value vs in
  let n_outer = Array.length vs in
  IF.with_query inv @@ fun () ->
  let distinct = ref 0 in
  (* [atoms] keyed by list length, or [None] at the first empty list *)
  let rec by_length = function
    | [] -> Some []
    | a :: rest ->
      if not (IF.pinned inv a) then incr distinct;
      (match IF.pin inv a with
      | 0 -> None
      | n -> Option.map (fun l -> (n, a) :: l) (by_length rest))
  in
  let tree = Prefix_tree.create () in
  let sorted_atoms = Array.make (max n_outer 1) [] in
  let engine = ref [] in
  let fast = ref 0 and preflighted = ref 0 in
  (* Phase 1: pin each query's atoms, sort them rarest-first (global
     order: ascending list length, ties by atom) and thread the flat
     queries into the tree. A query naming an atom the collection has
     nowhere at all cannot match any record under containment, so it
     ends here. *)
  Obs.Phase.run ?trace Build_tree (fun () ->
      with_io ?trace inv @@ fun () ->
      let use_fast = config_fast_path ec in
      Array.iteri
        (fun qi v ->
          let atoms = Nested.Value.atom_universe v in
          if not (use_fast && query_fast_path ec atoms) then
            engine := qi :: !engine
          else
            match by_length atoms with
            | None ->
              incr fast;
              incr preflighted
            | Some _ when not (tree_answers ec qs.(qi)) -> engine := qi :: !engine
            | Some keyed ->
              incr fast;
              let sorted =
                List.sort
                  (fun (la, a) (lb, b) ->
                    if la <> lb then Int.compare la lb else String.compare a b)
                  keyed
                |> List.map snd
              in
              sorted_atoms.(qi) <- sorted;
              Prefix_tree.insert tree qi sorted)
        vs;
      Obs.Trace.opt_attr trace "outer" (string_of_int n_outer);
      Obs.Trace.opt_attr trace "fast_path" (string_of_int !fast);
      Obs.Trace.opt_attr trace "preflight_rejected" (string_of_int !preflighted);
      Obs.Trace.opt_attr trace "fallback" (string_of_int (List.length !engine));
      Obs.Trace.opt_attr trace "distinct_atoms" (string_of_int !distinct);
      Obs.Trace.opt_attr trace "tree_nodes"
        (string_of_int (Prefix_tree.node_count tree)));
  let engine = List.rev !engine in
  (* Phase 2: one DFS over the tree. A node's candidate list is its
     parent's narrowed by the node's atom, computed once and shared by
     every query in its subtree; only the current path's lists are live.
     Expansion stops (LIMIT+) at the depth cap, when candidates are few,
     or when sharing drops below the fanout threshold — the queries below
     finish on the candidates accumulated so far, each emission recording
     how many of its atoms the candidate list already accounts for. *)
  let pending = ref [] in
  let nodes_expanded = ref 0
  and shared = ref 0
  and recomputed = ref 0
  and cuts = ref 0 in
  Obs.Phase.run ?trace Intersect (fun () ->
      with_io ?trace inv @@ fun () ->
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
                incr nodes_expanded;
                incr recomputed;
                shared := !shared + (kid.Prefix_tree.subtree - 1);
                visit (depth + 1) (narrow inv cand [ kid.Prefix_tree.atom ]) kid)
              kids
      in
      List.iter
        (fun (kid : Prefix_tree.node) ->
          (* depth 1: the candidate list is the atom's own root rows — a
             scan, not an intersection *)
          incr nodes_expanded;
          shared := !shared + (kid.Prefix_tree.subtree - 1);
          visit 1 (root_rows inv kid.Prefix_tree.atom) kid)
        (Prefix_tree.sorted_children (Prefix_tree.root tree));
      Obs.Trace.opt_attr trace "nodes_expanded" (string_of_int !nodes_expanded);
      Obs.Trace.opt_attr trace "intersections_shared" (string_of_int !shared);
      Obs.Trace.opt_attr trace "intersections_recomputed" (string_of_int !recomputed);
      Obs.Trace.opt_attr trace "limit_cuts" (string_of_int !cuts));
  (* Phase 3: finish what the tree could not. A query whose whole atom
     sequence was intersected emits its candidates as they stand; one cut
     short narrows them by its remaining atoms in one cursor pass, so a
     cut at any point is exact. The engine answers the rest. Each query
     takes exactly one of these paths and each yields ascending record
     ids, so the pair list is a concatenation, not a sort. *)
  let results = Array.make (max n_outer 1) [] and checked = ref 0 in
  let records_of roots = Array.to_list (Array.map (IF.record_of_root inv) roots) in
  Obs.Phase.run ?trace Verify (fun () ->
      with_io ?trace inv @@ fun () ->
      List.iter
        (fun (qi, cand, consumed) ->
          let rest = List.filteri (fun i _ -> i >= consumed) sorted_atoms.(qi) in
          results.(qi) <-
            records_of
              (match rest with
              | [] -> cand
              | _ :: _ ->
                checked := !checked + Array.length cand;
                narrow inv cand rest))
        !pending;
      List.iter
        (fun qi -> results.(qi) <- (E.query ~config:ec inv vs.(qi)).E.records)
        engine;
      Obs.Trace.opt_attr trace "candidates_checked" (string_of_int !checked);
      Obs.Trace.opt_attr trace "fallback_queries"
        (string_of_int (List.length engine));
      Obs.Trace.opt_attr trace "pairs"
        (string_of_int
           (Array.fold_left (fun n l -> n + List.length l) 0 results)));
  let pairs =
    List.concat
      (List.init n_outer (fun qi -> List.map (fun rid -> (qi, rid)) results.(qi)))
  in
  let stats =
    {
      outer = n_outer;
      fast_path = !fast;
      preflight_rejected = !preflighted;
      fallback = List.length engine;
      tree_nodes = Prefix_tree.node_count tree;
      nodes_expanded = !nodes_expanded;
      intersections_shared = !shared;
      intersections_recomputed = !recomputed;
      limit_cuts = !cuts;
      candidates_checked = !checked;
      pairs = List.length pairs;
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
          tree_nodes := geti s "tree_nodes";
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
        | Minimize | Prefilter | Retrieve | Eval ->
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
