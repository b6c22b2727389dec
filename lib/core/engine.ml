module IF = Invfile.Inverted_file

let src = Logs.Src.create "nscq.engine" ~doc:"nested-set containment query engine"

module Log = (val Logs.src_log src : Logs.LOG)

type algorithm =
  | Top_down
  | Top_down_paper
  | Bottom_up
  | Naive_scan
  | Signature_scan

type scope = Roots | Anywhere

type config = {
  algorithm : algorithm;
  join : Semantics.join;
  embedding : Semantics.embedding;
  scope : scope;
  verify : bool;
  filter_index : Filter_index.t option;
  td_order : Top_down.order;
  spill_to : string option;
  wildcards : bool;
  minimize : bool;
}

let default =
  {
    algorithm = Bottom_up;
    join = Semantics.Containment;
    embedding = Semantics.Hom;
    scope = Roots;
    verify = false;
    filter_index = None;
    td_order = Top_down.Query_order;
    spill_to = None;
    wildcards = false;
    minimize = false;
  }

type result = {
  nodes : Intset.t;
  records : int list;
  prefilter_survivors : int option;
}

let run_algorithm config ?root_filter inv q =
  let mode () =
    Semantics.mode_of ~wildcards:config.wildcards config.join config.embedding
  in
  match config.algorithm with
  | Top_down -> Top_down.run (mode ()) ?root_filter ~order:config.td_order inv q
  | Top_down_paper -> Top_down.run_paper (mode ()) ?root_filter inv q
  | Bottom_up ->
    Bottom_up.run (mode ()) ?root_filter ?spill_to:config.spill_to inv q
  | Naive_scan ->
    let scope = match config.scope with Roots -> `Roots | Anywhere -> `Anywhere in
    Naive.scan ~wildcards:config.wildcards ~join:config.join
      ~embedding:config.embedding ~scope inv q
  | Signature_scan -> (
    (* Signature-file baseline (cf. the flat-set literature the paper cites,
       e.g. Helmer & Moerkotte): scan per-record hierarchical signatures,
       verify survivors with the embedding oracle. Needs a filter index and
       root scope. *)
    match config.filter_index, config.scope with
    | None, _ ->
      invalid_arg "Engine: Signature_scan needs a filter_index in the config"
    | Some _, Anywhere ->
      invalid_arg "Engine: Signature_scan answers root-scope queries only"
    | Some fi, Roots -> (
      match
        Filter_index.candidate_records fi ~join:config.join
          ~embedding:config.embedding (Query.to_value q)
      with
      | None ->
        raise
          (Semantics.Unsupported
             "signature scan: no sound signature test for this join/embedding")
      | Some candidates ->
        let roots = IF.roots inv in
        candidates
        |> List.filter (fun r ->
               let tree = IF.record_tree inv r in
               Embed.at_node config.join config.embedding ~q ~s:tree
                 tree.Nested.Tree.root)
        |> List.map (fun r -> roots.(r))
        |> Intset.of_list))

let verify_node config inv q id =
  let root = IF.root_of_node inv id in
  let tree = IF.record_tree inv (IF.record_of_root inv root) in
  Embed.at_node ~wildcards:config.wildcards config.join config.embedding ~q ~s:tree id

(* --- observability ---

   Opt-in: without [trace] every phase runs directly and no counter is
   sampled. Phases go through [Obs.Phase.run], which also emits the
   flight recorder's begin/end edges whenever the recorder is enabled
   (the server leaves it on), traced or not. *)

let algorithm_name = function
  | Top_down -> "top-down"
  | Top_down_paper -> "top-down-paper"
  | Bottom_up -> "bottom-up"
  | Naive_scan -> "naive-scan"
  | Signature_scan -> "signature-scan"

(* Lookup and store-read deltas of [f], on the innermost open span. *)
let with_io ?trace inv f =
  Storage.Io_stats.attribute ?trace ~store:(IF.store inv).Storage.Kv.stats
    (IF.lookup_stats inv) f

(* Distinct non-pattern leaf atoms of a query, in first-occurrence
   order (explain below). *)
let distinct_atoms config q =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add a =
    if not (config.wildcards && Semantics.is_pattern a) && not (Hashtbl.mem seen a)
    then begin
      Hashtbl.add seen a ();
      out := a :: !out
    end
  in
  let rec walk (n : Query.node) =
    Array.iter add n.Query.leaves;
    List.iter walk n.Query.children
  in
  walk q;
  List.rev !out

(* --- the record filter ---

   Under the containment and equality joins a node matches only if every
   query atom occurs at or below it (a leaf value of its own or of a node
   a query child maps to), so the record holding an answer holds every
   non-pattern query atom: every answer lies in a record of the shortest
   list. Each algorithm decides a node from the postings of its own
   record alone, so restricting every cursor to those records loses no
   answer and adds none. It pays when that list is far shorter than the
   longest: the cursors then decode only the blocks the filtered records
   land on. *)

(* The naive and signature scans read records, not lists. *)
let reads_lists config =
  match config.algorithm with
  | Top_down | Top_down_paper | Bottom_up -> true
  | Naive_scan | Signature_scan -> false

let filter_applies config =
  (match config.join with
  | Semantics.Containment | Semantics.Equality -> true
  | Semantics.Superset | Semantics.Overlap _ | Semantics.Similarity _ -> false)
  && reads_lists config

(* Pins every non-pattern query atom, returning the rarest one with its
   list length (the first of equals, in query order) and the longest
   length. An atom an enclosing batch or join already pinned is weighed
   like any other, and a repeated atom changes neither bound, so the
   choice is the one the query makes alone. An empty list ends the
   resolution where the filter applies: it answers the query empty on
   its own. A traced run records one [atom:a] span per distinct atom
   with its lookup deltas. *)
let resolve_atoms config ?trace inv (q : Query.t) =
  let rarest = ref None and longest = ref 0 in
  let settled () =
    match !rarest with Some (_, 0) -> filter_applies config | Some _ | None -> false
  in
  let spanned = Option.map (fun _ -> Hashtbl.create 16) trace in
  let visit a =
    if not ((config.wildcards && Semantics.is_pattern a) || settled ()) then begin
      let n =
        match spanned with
        | Some seen when not (Hashtbl.mem seen a) ->
          Hashtbl.add seen a ();
          Obs.Trace.opt_span trace ("atom:" ^ a) (fun () ->
              Storage.Io_stats.attribute ?trace (IF.lookup_stats inv) (fun () ->
                  IF.pin inv a))
        | Some _ | None -> IF.pin inv a
      in
      (match !rarest with
      | Some (_, m) when m <= n -> ()
      | Some _ | None -> rarest := Some (a, n));
      longest := Int.max !longest n
    end
  in
  let rec walk (n : Query.node) =
    Array.iter visit n.Query.leaves;
    List.iter walk n.Query.children
  in
  walk q;
  (!rarest, !longest)

(* The rarest atom, when its list is empty or a block of postings per
   record of it still reads fewer postings than the longest list. *)
let filter_atom config (rarest, longest) =
  match rarest with
  | Some (a, shortest)
    when filter_applies config
         && (shortest = 0 || shortest * Invfile.Plist_blocks.block_size < longest) ->
    Some a
  | Some _ | None -> None

let evaluate config ?trace ~qid inv (q : Query.t) =
  (* Bloom prefilter: the record ids that might match. *)
  let survivors =
    match config.filter_index with
    | None -> None
    | Some fi ->
      Obs.Phase.run ?trace ~qid Prefilter (fun () ->
          Option.map
            (fun records ->
              Obs.Trace.opt_attr trace "survivors"
                (string_of_int (List.length records));
              Array.of_list records)
            (Filter_index.candidate_records fi ~join:config.join
               ~embedding:config.embedding (Query.to_value q)))
  in
  let prefilter_survivors = Option.map Array.length survivors in
  (* Anchor Equation-2 queries at record roots — the records the filter
     keeps, or else every record the Bloom prefilter passed: the index
     algorithms then never chase heads that cannot be results. The
     survivors test the root alone, so they narrow root-scope queries
     only. The naive and signature scans check roots directly. *)
  let anchored =
    (match config.scope with Roots -> true | Anywhere -> false) && reads_lists config
  in
  let roots_of records = Array.map (fun r -> (IF.roots inv).(r)) records in
  let root_filter =
    if not anchored then None
    else
      match survivors with
      | None -> Some (IF.roots inv)
      | Some s -> Some (roots_of s)
  in
  let pruned =
    match root_filter with Some f -> Intset.is_empty f | None -> false
  in
  IF.with_query inv @@ fun () ->
  (* Each distinct query atom is resolved once, into the handle's pins
     (shared with an enclosing batch or join): eval then reads exactly
     those sources, with no further lookup, traced or not. The scans
     read no list and resolve nothing. *)
  let chosen =
    if pruned || not (reads_lists config) then None
    else
      Obs.Phase.run ?trace ~qid Retrieve (fun () ->
          with_io ?trace inv (fun () ->
              filter_atom config (resolve_atoms config ?trace inv q)))
  in
  let nodes =
    Obs.Phase.run ?trace ~qid Eval (fun () ->
        with_io ?trace inv (fun () ->
            let root_filter, pruned =
              match chosen with
              | None -> (root_filter, pruned)
              | Some a ->
                let records = IF.records_of inv a in
                let records =
                  match survivors with
                  | Some s when anchored -> Intset.inter records s
                  | Some _ | None -> records
                in
                IF.filter_records inv records;
                Obs.Trace.opt_attr trace "filter_atom" a;
                Obs.Trace.opt_attr trace "filter_records"
                  (string_of_int (Array.length records));
                ( (if anchored then Some (roots_of records) else None),
                  Array.length records = 0 )
            in
            Obs.Trace.opt_attr trace "filter" (string_of_bool (Option.is_some chosen));
            let nodes =
              if pruned then begin
                Log.debug (fun m ->
                    m "no record can match; skipping algorithm");
                Intset.empty
              end
              else run_algorithm config ?root_filter inv q
            in
            Obs.Trace.opt_attr trace "algorithm" (algorithm_name config.algorithm);
            Obs.Trace.opt_attr trace "candidates"
              (string_of_int (Intset.cardinal nodes));
            nodes))
  in
  Log.debug (fun m ->
      m "%s %a/%a: %d candidate node(s)" (algorithm_name config.algorithm)
        Semantics.pp_join config.join Semantics.pp_embedding config.embedding
        (Intset.cardinal nodes));
  let nodes =
    Obs.Phase.run ?trace ~qid Verify (fun () ->
        with_io ?trace inv (fun () ->
            let checked = Intset.cardinal nodes in
            (* Scope: Equation 2 keeps only record roots. *)
            let nodes =
              match config.scope with
              | Anywhere -> nodes
              | Roots ->
                Array.of_list
                  (List.filter (IF.is_root inv) (Intset.to_list nodes))
            in
            let nodes =
              if config.verify then
                Array.of_list
                  (List.filter (verify_node config inv q) (Intset.to_list nodes))
              else nodes
            in
            Obs.Trace.opt_attr trace "checked" (string_of_int checked);
            Obs.Trace.opt_attr trace "kept" (string_of_int (Intset.cardinal nodes));
            nodes))
  in
  let records =
    (* records containing at least one matching node *)
    Intset.to_list nodes
    |> List.map (fun id -> IF.record_of_root inv (IF.root_of_node inv id))
    |> List.sort_uniq Int.compare
  in
  { nodes; records; prefilter_survivors }

let query_prepared ?(config = default) ?trace inv q =
  let qid = Obs.Recorder.begin_query () in
  let result = with_io ?trace inv (fun () -> evaluate config ?trace ~qid inv q) in
  let n = List.length result.records in
  Obs.Trace.opt_attr trace "records" (string_of_int n);
  Obs.Recorder.end_query qid ~results:n;
  result

let minimize_applicable config =
  config.minimize && (not config.wildcards)
  && (match config.join with Semantics.Containment -> true | _ -> false)
  &&
  match config.embedding with
  | Semantics.Hom | Semantics.Homeo | Semantics.Homeo_full -> true
  | Semantics.Iso -> false

let query ?(config = default) ?trace inv value =
  let value =
    if minimize_applicable config then
      Obs.Phase.run ?trace Minimize (fun () ->
          let v = Minimize.minimize value in
          Obs.Trace.opt_attr trace "size_before" (string_of_int (Nested.Value.size value));
          Obs.Trace.opt_attr trace "size_after" (string_of_int (Nested.Value.size v));
          v)
    else value
  in
  query_prepared ~config ?trace inv (Query.of_value value)

let record_values inv result = List.map (IF.record_value inv) result.records

(* --- batched execution --- *)

(* A block of queries against one handle, in one resolution scope: each
   distinct atom of the block is looked up once, by the first query that
   names it, and the queries after it read that pin. Returns results in
   input order. *)
let query_batch ?(config = default) ?traces inv values =
  (* pad/truncate the optional trace list to line up with [values] *)
  let trace_for =
    match traces with
    | None -> fun _ -> None
    | Some l ->
      let arr = Array.of_list l in
      fun i -> if i < Array.length arr then arr.(i) else None
  in
  IF.with_query inv (fun () ->
      List.mapi (fun i v -> query ~config ?trace:(trace_for i) inv v) values)

(* Equation 1: the containment join of a whole query collection Q with S. *)
let containment_join ?config inv queries =
  List.mapi (fun qi q -> (qi, (query ?config inv q).records)) queries

(* Witnesses: one concrete embedding per matching node. *)
let witnesses ?(config = default) inv value =
  let q = Query.of_value value in
  let r = query_prepared ~config inv q in
  List.filter_map
    (fun id ->
      let record = IF.record_of_root inv (IF.root_of_node inv id) in
      let tree = IF.record_tree inv record in
      Option.map
        (fun w -> (id, w))
        (Embed.witness ~wildcards:config.wildcards config.join config.embedding ~q
           ~s:tree id))
    (Intset.to_list r.nodes)

(* --- explain profiles (Obs.Explain) --- *)

let codec_label = function
  | Invfile.Plist.Varint -> "varint"
  | Invfile.Plist.Blocked -> "blocked"

(* Read from the payload header alone: the list length is the 'V' count
   or the block directory's total, so no posting is decoded. *)
let atom_plan inv a =
  match (IF.store inv).Storage.Kv.get (IF.atom_key a) with
  | None ->
    { Obs.Explain.atom = a; list_len = 0; bytes = 0; codec = "-"; blocks = 0 }
  | Some payload ->
    let codec = Invfile.Plist.codec_of_bytes payload in
    let blocks =
      match codec with
      | Invfile.Plist.Blocked ->
        Invfile.Plist_blocks.n_blocks
          (Invfile.Plist_blocks.directory payload ~pos:1)
      | Invfile.Plist.Varint -> 0
    in
    {
      Obs.Explain.atom = a;
      list_len = Invfile.Plist.payload_length payload;
      bytes = String.length payload;
      codec = codec_label codec;
      blocks;
    }

let config_kvs config =
  [
    ("algorithm", algorithm_name config.algorithm);
    ("join", Format.asprintf "%a" Semantics.pp_join config.join);
    ("embedding", Format.asprintf "%a" Semantics.pp_embedding config.embedding);
    ("scope", match config.scope with Roots -> "roots" | Anywhere -> "anywhere");
    ("verify", string_of_bool config.verify);
    ("minimize", string_of_bool config.minimize);
    ("wildcards", string_of_bool config.wildcards);
  ]

(* Estimated-vs-actual per phase. Actuals are read back from the very
   trace the profiled run recorded, so they reconcile with an
   independent [nscq trace] of the same deterministic query by
   construction; estimates come from the paper's static model — the
   prefilter can at best keep every record, an intersection yields at
   most the rarest list's length, verification starts from eval's
   survivors. *)
let profile_phases ~record_count ~min_len root =
  let geti = Obs.Explain.int_attr in
  let eval_actual = ref (-1) in
  Obs.Explain.phases_of_trace
    (fun p (s : Obs.Trace.span) ->
      match p with
      | Obs.Phase.Minimize ->
        ( -1, -1,
          [ ("size_before", string_of_int (geti s "size_before"));
            ("size_after", string_of_int (geti s "size_after")) ] )
      | Prefilter -> (record_count, geti s "survivors", [])
      | Retrieve ->
        let atoms = List.length s.Obs.Trace.children in
        ( atoms, atoms,
          [ ("hits", string_of_int (max 0 (geti s "hits")));
            ("misses", string_of_int (max 0 (geti s "misses"))) ] )
      | Eval ->
        let actual = geti s "candidates" in
        eval_actual := actual;
        ( min_len, actual,
          Obs.Explain.notes s
            [ "algorithm"; "filter"; "filter_atom"; "filter_records" ] )
      | Verify -> (!eval_actual, geti s "kept", [])
      | Build_tree | Intersect -> (-1, -1, []))
    root

let profile_of_trace ?(config = default) ?(target = "store") inv value root
    records =
  let minimized =
    if minimize_applicable config then Minimize.minimize value else value
  in
  let atoms = distinct_atoms config (Query.of_value minimized) in
  let plans =
    List.map (atom_plan inv) atoms
    |> List.stable_sort (fun a b ->
           Int.compare a.Obs.Explain.list_len b.Obs.Explain.list_len)
  in
  let min_len =
    match plans with
    | [] -> IF.record_count inv
    | p :: _ -> p.Obs.Explain.list_len
  in
  Obs.Explain.make ~target ~query:(Nested.Syntax.to_string value)
    ~config:(config_kvs config) ~atoms:plans
    ~phases:(profile_phases ~record_count:(IF.record_count inv) ~min_len root)
    ~records ()

let explain_profile ?(config = default) ?target inv value =
  let trace = Obs.Trace.create "explain" in
  let result = query ~config ~trace inv value in
  let root = Obs.Trace.finish trace in
  profile_of_trace ~config ?target inv value root (List.length result.records)

(* --- store verification & repair --- *)

let verify_store inv = Invfile.Integrity.check inv

type repair_report = {
  rolled_back : int;
  problems_before : Invfile.Integrity.problem list;
  rebuilt : Invfile.Repair.outcome option;
  problems_after : Invfile.Integrity.problem list;
}

let repair inv =
  (* 1. finish any interrupted update transaction (normally already done
     by open_store; explicit here so repair works on a handle whose store
     was mutated behind its back) *)
  let rolled_back = Invfile.Journal.recover (IF.store inv) in
  if rolled_back > 0 then IF.refresh inv;
  (* 2. if the derived index still disagrees with the records, rebuild it
     from them *)
  let problems_before = Invfile.Integrity.check inv in
  let rebuilt =
    match problems_before with
    | [] -> None
    | _ :: _ ->
      let outcome = Invfile.Repair.rebuild inv in
      Log.info (fun m ->
          m "repair: rebuilt index from records (%d live, %d tombstoned, %d atoms)"
            outcome.Invfile.Repair.live_records outcome.Invfile.Repair.tombstoned
            outcome.Invfile.Repair.atoms);
      Some outcome
  in
  let problems_after =
    match rebuilt with None -> problems_before | Some _ -> Invfile.Integrity.check inv
  in
  { rolled_back; problems_before; rebuilt; problems_after }

let pp_repair_report ppf r =
  Format.fprintf ppf "journal: %d key(s) rolled back@." r.rolled_back;
  (match r.rebuilt with
  | None -> Format.fprintf ppf "index: consistent, no rebuild needed@."
  | Some o ->
    Format.fprintf ppf
      "index: rebuilt from records (%d live, %d tombstoned, %d atoms), %d problem(s) before@."
      o.Invfile.Repair.live_records o.Invfile.Repair.tombstoned
      o.Invfile.Repair.atoms
      (List.length r.problems_before));
  match r.problems_after with
  | [] -> Format.fprintf ppf "store is consistent@."
  | problems ->
    List.iter
      (fun p -> Format.fprintf ppf "UNREPAIRED %a@." Invfile.Integrity.pp_problem p)
      problems

(* --- workloads --- *)

type workload_stats = {
  queries : int;
  results_total : int;
  positives : int;
  elapsed_s : float;
  cache_hits : int;
  cache_misses : int;
  io_reads : int;
  io_bytes_read : int;
}

let run_workload ?(config = default) inv queries =
  let lookup0 = IF.lookup_stats inv in
  let store0 = (IF.store inv).Storage.Kv.stats in
  let hits0 = Storage.Io_stats.hits lookup0
  and misses0 = Storage.Io_stats.misses lookup0
  and reads0 = Storage.Io_stats.reads store0
  and bytes0 = Storage.Io_stats.bytes_read store0 in
  let t0 = Unix.gettimeofday () in
  let results_total = ref 0 and positives = ref 0 in
  List.iter
    (fun q ->
      let r = query ~config inv q in
      let n = List.length r.records in
      results_total := !results_total + n;
      if n > 0 then incr positives)
    queries;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  {
    queries = List.length queries;
    results_total = !results_total;
    positives = !positives;
    elapsed_s;
    cache_hits = Storage.Io_stats.hits lookup0 - hits0;
    cache_misses = Storage.Io_stats.misses lookup0 - misses0;
    io_reads = Storage.Io_stats.reads store0 - reads0;
    io_bytes_read = Storage.Io_stats.bytes_read store0 - bytes0;
  }

let pp_workload_stats ppf s =
  Format.fprintf ppf
    "%d queries in %.3f ms (%.3f ms/query), %d positives, %d results, cache %d/%d, %d reads (%d B)"
    s.queries (1000. *. s.elapsed_s)
    (1000. *. s.elapsed_s /. Float.of_int (max 1 s.queries))
    s.positives s.results_total s.cache_hits
    (s.cache_hits + s.cache_misses)
    s.io_reads s.io_bytes_read
