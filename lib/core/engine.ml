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
  preflight : bool;
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
    preflight = false;
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

(* Under containment-style joins, every query atom must occur in the
   collection for any record to match; checking key existence is far
   cheaper than decoding the posting lists an algorithm would touch. *)
let preflight_rejects config inv (q : Query.t) =
  config.preflight
  && (match config.join with
     | Semantics.Containment | Semantics.Equality -> true
     | Semantics.Superset | Semantics.Overlap _ | Semantics.Similarity _ -> false)
  &&
  let leaf_exists a =
    if config.wildcards && Semantics.is_pattern a then
      (* a pattern's existence would need a range probe; don't reject *)
      true
    else IF.mem_atom inv a
  in
  let rec atoms_exist (n : Query.node) =
    Array.for_all leaf_exists n.Query.leaves
    && List.for_all atoms_exist n.Query.children
  in
  not (atoms_exist q)

(* --- tracing helpers --- *)

(* All observability below is opt-in: when [trace] is [None] every helper
   reduces to running the phase directly, keeping the hot path free of
   recording cost (measured by bench obs-overhead). *)

let tspan trace name f =
  match trace with None -> f () | Some t -> Obs.Trace.span t name f

let tattr trace k v =
  match trace with None -> () | Some t -> Obs.Trace.add_attr t k v

(* Flight-recorder phase codes, interned once at module init so the
   emit path is branch-and-store only. The recorder is orthogonal to
   tracing: when enabled (the server leaves it on), phase edges are
   recorded even for untraced queries — that is its whole point. *)
let ph_preflight = Obs.Recorder.intern "preflight"
let ph_prefilter = Obs.Recorder.intern "prefilter"
let ph_retrieve = Obs.Recorder.intern "retrieve"
let ph_eval = Obs.Recorder.intern "eval"
let ph_verify = Obs.Recorder.intern "verify"
let ph_minimize = Obs.Recorder.intern "minimize"
let ph_prefetch = Obs.Recorder.intern "prefetch"

(* A phase span that additionally emits recorder begin/end edges. [qid]
   is 0 for phases outside any single query's scope (batch prefetch,
   minimize — it runs before the query id exists). *)
let rspan trace ~qid code name f =
  if not (Obs.Recorder.enabled ()) then tspan trace name f
  else begin
    Obs.Recorder.phase_begin code ~qid;
    Fun.protect
      ~finally:(fun () -> Obs.Recorder.phase_end code ~qid)
      (fun () -> tspan trace name f)
  end

let algorithm_name = function
  | Top_down -> "top-down"
  | Top_down_paper -> "top-down-paper"
  | Bottom_up -> "bottom-up"
  | Naive_scan -> "naive-scan"
  | Signature_scan -> "signature-scan"

type io_snap = { lookups : int; hits : int; misses : int; reads : int; bytes : int }

let io_snap inv =
  let l = IF.lookup_stats inv and s = (IF.store inv).Storage.Kv.stats in
  {
    lookups = Storage.Io_stats.lookups l;
    hits = Storage.Io_stats.hits l;
    misses = Storage.Io_stats.misses l;
    reads = Storage.Io_stats.reads s;
    bytes = Storage.Io_stats.bytes_read s;
  }

(* Attach lookup/hit/miss (always, so zero is visible) and read deltas
   (when non-zero) of the innermost open span. *)
let io_attrs trace before inv =
  match trace with
  | None -> ()
  | Some t ->
    let now = io_snap inv in
    let put k v = Obs.Trace.add_attr t k (string_of_int v) in
    put "lookups" (now.lookups - before.lookups);
    put "hits" (now.hits - before.hits);
    put "misses" (now.misses - before.misses);
    if now.reads > before.reads then put "reads" (now.reads - before.reads);
    if now.bytes > before.bytes then put "bytes_read" (now.bytes - before.bytes)

(* Distinct non-pattern leaf atoms of a query, in first-occurrence order
   (shared with batching below). *)
let distinct_atoms config qs =
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
  List.iter walk qs;
  List.rev !out

let query_prepared ?(config = default) ?trace inv (q : Query.t) =
  let all0 = io_snap inv in
  let qid = Obs.Recorder.begin_query () in
  let finish result =
    (match trace with
    | None -> ()
    | Some t ->
      io_attrs trace all0 inv;
      Obs.Trace.add_attr t "records" (string_of_int (List.length result.records)));
    Obs.Recorder.end_query qid ~results:(List.length result.records);
    result
  in
  let rejected =
    if not config.preflight then false
    else
      rspan trace ~qid ph_preflight "preflight" (fun () ->
          let r = preflight_rejects config inv q in
          tattr trace "rejected" (string_of_bool r);
          r)
  in
  if rejected then
    finish { nodes = Intset.empty; records = []; prefilter_survivors = None }
  else
  (* Bloom prefilter: restrict to records that might match. *)
  let allowed, prefilter_survivors =
    match config.filter_index with
    | None -> (None, None)
    | Some fi ->
      rspan trace ~qid ph_prefilter "prefilter" (fun () ->
          match
            Filter_index.candidate_records fi ~join:config.join
              ~embedding:config.embedding (Query.to_value q)
          with
          | None -> (None, None)
          | Some records ->
            let roots = IF.roots inv in
            let set = Intset.of_list (List.map (fun r -> roots.(r)) records) in
            tattr trace "survivors" (string_of_int (List.length records));
            (Some set, Some (List.length records)))
  in
  (* Anchor Equation-2 queries at record roots (intersected with Bloom
     survivors when a prefilter ran): the index algorithms then never chase
     heads that cannot be results. The naive scan checks roots directly. *)
  let root_filter =
    match config.scope, config.algorithm with
    | Anywhere, _ | _, Naive_scan -> None
    | _, Signature_scan -> None
    | Roots, (Top_down | Top_down_paper | Bottom_up) ->
      Some
        (match allowed with
        | None -> IF.roots inv
        | Some a -> Intset.inter (IF.roots inv) a)
  in
  let pruned =
    match root_filter with Some f -> Intset.is_empty f | None -> false
  in
  (* Per-atom retrieval spans: resolve each distinct query atom once into
     the handle's per-query table, so the trace shows which lists were
     cached and which were read from the store, and eval then reads
     exactly those sources — the kernels and cursor kinds of an untraced
     run, with one lookup per distinct atom. *)
  let with_retrieval f =
    if Option.is_none trace || pruned then f ()
    else
      IF.with_pinned inv (fun pin ->
          rspan trace ~qid ph_retrieve "retrieve" (fun () ->
              let r0 = io_snap inv in
              List.iter
                (fun a ->
                  tspan trace ("atom:" ^ a) (fun () ->
                      let b = io_snap inv in
                      pin a;
                      let now = io_snap inv in
                      tattr trace "hits" (string_of_int (now.hits - b.hits));
                      tattr trace "misses" (string_of_int (now.misses - b.misses))))
                (distinct_atoms config [ q ]);
              io_attrs trace r0 inv);
          f ())
  in
  with_retrieval (fun () ->
      let t0 = Unix.gettimeofday () in
      let nodes =
        rspan trace ~qid ph_eval "eval" (fun () ->
            let e0 = io_snap inv in
            let nodes =
              if pruned then begin
                Log.debug (fun m ->
                    m "prefilter eliminated every record; skipping algorithm");
                Intset.empty
              end
              else run_algorithm config ?root_filter inv q
            in
            tattr trace "algorithm" (algorithm_name config.algorithm);
            tattr trace "candidates" (string_of_int (Intset.cardinal nodes));
            io_attrs trace e0 inv;
            nodes)
      in
      Log.debug (fun m ->
          m "%s %a/%a: %d candidate node(s) in %.3f ms"
            (match config.algorithm with
            | Top_down -> "top-down"
            | Top_down_paper -> "top-down(paper)"
            | Bottom_up -> "bottom-up"
            | Naive_scan -> "naive"
            | Signature_scan -> "signature-scan")
            Semantics.pp_join config.join Semantics.pp_embedding config.embedding
            (Intset.cardinal nodes)
            (1000. *. (Unix.gettimeofday () -. t0)));
      let nodes =
        rspan trace ~qid ph_verify "verify" (fun () ->
            let v0 = io_snap inv in
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
            tattr trace "checked" (string_of_int checked);
            tattr trace "kept" (string_of_int (Intset.cardinal nodes));
            io_attrs trace v0 inv;
            nodes)
      in
      let records =
        (* records containing at least one matching node *)
        Intset.to_list nodes
        |> List.map (fun id -> IF.record_of_root inv (IF.root_of_node inv id))
        |> List.sort_uniq Int.compare
      in
      finish { nodes; records; prefilter_survivors })

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
      rspan trace ~qid:0 ph_minimize "minimize" (fun () ->
          let v = Minimize.minimize value in
          tattr trace "size_before" (string_of_int (Nested.Value.size value));
          tattr trace "size_after" (string_of_int (Nested.Value.size v));
          v)
    else value
  in
  query_prepared ~config ?trace inv (Query.of_value value)

let record_values inv result = List.map (IF.record_value inv) result.records

(* --- batched execution --- *)

(* Wildcard patterns are resolved by range scans, not point probes, so
   they are not prefetchable — [distinct_atoms] (above) excludes them. *)

(* A block of queries against one handle: probe the inverted file once per
   distinct atom (cf. Bouros et al., "Set Containment Join Revisited" —
   block processing amortizes index probes), then evaluate each query
   against the warmed cache. When the handle has no cache attached, a
   transient one scoped to the batch is used. Returns results in input
   order. *)
let query_batch ?(config = default) ?traces inv values =
  (* pad/truncate the optional trace list to line up with [values] *)
  let trace_for =
    match traces with
    | None -> fun _ -> None
    | Some l ->
      let arr = Array.of_list l in
      fun i -> if i < Array.length arr then arr.(i) else None
  in
  match values with
  | [] -> []
  | [ v ] -> [ query ~config ?trace:(trace_for 0) inv v ]
  | values ->
    let values =
      if minimize_applicable config then List.map Minimize.minimize values
      else values
    in
    let qs = List.map Query.of_value values in
    let atoms = distinct_atoms config qs in
    let transient = Option.is_none (IF.cache inv) in
    if transient then
      IF.attach_cache inv
        (Invfile.Cache.create Invfile.Cache.Lru
           ~capacity:(max 1 (List.length atoms)));
    Fun.protect
      ~finally:(fun () -> if transient then IF.detach_cache inv)
      (fun () ->
        (* the block-wide prefetch belongs to no single query; record it
           into the first traced one so its I/O stays attributed *)
        let prefetch_trace =
          List.find_map Fun.id
            (List.mapi (fun i _ -> trace_for i) values)
        in
        let loaded =
          rspan prefetch_trace ~qid:0 ph_prefetch "prefetch" (fun () ->
              let p0 = io_snap inv in
              let loaded = IF.prefetch inv atoms in
              tattr prefetch_trace "batch_size"
                (string_of_int (List.length qs));
              tattr prefetch_trace "atoms" (string_of_int (List.length atoms));
              tattr prefetch_trace "loaded" (string_of_int loaded);
              io_attrs prefetch_trace p0 inv;
              loaded)
        in
        Log.debug (fun m ->
            m "batch of %d queries: %d distinct atom(s), %d list(s) loaded"
              (List.length qs) (List.length atoms) loaded);
        List.mapi
          (fun i q -> query_prepared ~config ?trace:(trace_for i) inv q)
          qs)

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

(* --- explain --- *)

type node_plan = {
  node_path : string;  (* e.g. "root.2.0" *)
  leaves : string list;
  candidate_count : int;
}

let explain ?(config = default) inv value =
  let mode =
    Semantics.mode_of ~wildcards:config.wildcards config.join config.embedding
  in
  let q = Query.of_value value in
  let plans = ref [] in
  let rec walk path (n : Query.node) =
    let candidates = Semantics.candidates mode inv n in
    plans :=
      {
        node_path = path;
        leaves = Array.to_list n.Query.leaves;
        candidate_count = Invfile.Plist.length candidates;
      }
      :: !plans;
    List.iteri (fun i c -> walk (Printf.sprintf "%s.%d" path i) c) n.Query.children
  in
  walk "root" q;
  List.rev !plans

let pp_plan ppf plans =
  List.iter
    (fun p ->
      Format.fprintf ppf "%-16s leaves={%s}  candidates=%d@." p.node_path
        (String.concat ", " p.leaves)
        p.candidate_count)
    plans

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
      list_len =
        Invfile.Plist_stream.remaining (Invfile.Plist_stream.cursor_of_bytes payload);
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
    ("preflight", string_of_bool config.preflight);
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
let profile_phases ~record_count ~min_len (root : Obs.Trace.span) =
  let geti name (s : Obs.Trace.span) =
    match List.assoc_opt name s.Obs.Trace.attrs with
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> -1)
    | None -> -1
  in
  let eval_actual = ref (-1) in
  List.map
    (fun (s : Obs.Trace.span) ->
      let ms = Float.max 0. s.Obs.Trace.duration_s *. 1e3 in
      let mk ?(notes = []) est actual =
        { Obs.Explain.phase = s.Obs.Trace.name; est; actual; ms; notes }
      in
      match s.Obs.Trace.name with
      | "minimize" ->
        mk (-1) (-1)
          ~notes:
            [
              ("size_before", string_of_int (geti "size_before" s));
              ("size_after", string_of_int (geti "size_after" s));
            ]
      | "preflight" ->
        let rejected =
          match List.assoc_opt "rejected" s.Obs.Trace.attrs with
          | Some "true" -> true
          | Some _ | None -> false
        in
        mk (-1) (-1) ~notes:[ ("rejected", string_of_bool rejected) ]
      | "prefilter" -> mk record_count (geti "survivors" s)
      | "prefetch" -> mk (geti "atoms" s) (geti "loaded" s)
      | "retrieve" ->
        let atoms = List.length s.Obs.Trace.children in
        mk atoms atoms
          ~notes:
            [
              ("hits", string_of_int (max 0 (geti "hits" s)));
              ("misses", string_of_int (max 0 (geti "misses" s)));
            ]
      | "eval" ->
        let actual = geti "candidates" s in
        eval_actual := actual;
        mk min_len actual
          ~notes:
            (match List.assoc_opt "algorithm" s.Obs.Trace.attrs with
            | Some a -> [ ("algorithm", a) ]
            | None -> [])
      | "verify" -> mk !eval_actual (geti "kept" s)
      | _ -> mk (-1) (-1))
    root.Obs.Trace.children

let profile_of_trace ?(config = default) ?(target = "store") inv value root
    records =
  let minimized =
    if minimize_applicable config then Minimize.minimize value else value
  in
  let atoms = distinct_atoms config [ Query.of_value minimized ] in
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

let explain_profile_batch ?(config = default) ?target inv values =
  let traces = List.map (fun _ -> Some (Obs.Trace.create "explain")) values in
  let results = query_batch ~config ~traces inv values in
  List.map2
    (fun (trace, value) result ->
      let root = Obs.Trace.finish (Option.get trace) in
      profile_of_trace ~config ?target inv value root
        (List.length result.records))
    (List.combine traces values)
    results

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
