module IF = Invfile.Inverted_file
module E = Containment.Engine
module Sem = Containment.Semantics
module P = Containment.Partitioned

let src = Logs.Src.create "nscq.shard" ~doc:"scatter-gather query router"

module Log = (val Logs.src_log src : Logs.LOG)

type fail_mode = Fail_fast | Partial

type config = {
  engine : E.config;
  fail_mode : fail_mode;
  remote_deadline_ms : int;
  domains : int;
  cache_budget : int;
}

let default_config =
  {
    engine = E.default;
    fail_mode = Fail_fast;
    remote_deadline_ms = 0;
    domains = Containment.Parallel.default_domains ();
    cache_budget = 0;
  }

exception Shard_failed of int * string

type target =
  | Local_handle of IF.t
  | Remote_addr of { host : string; port : int }

type shard_stat = {
  mutable queries : int;
  mutable failures : int;
  mutable skips : int;
  mutable results : int;
  mutable total_ms : float;
  mutable max_ms : float;
}

type t = {
  config : config;
  mutable manifest : Manifest.t;
  targets : target array;
  stats : shard_stat array;
  mutable total_queries : int;
  mutable total_joins : int;
  mutable partial_answers : int;
  mutable closed : bool;
  mutable global_index : (int, int * int) Hashtbl.t option;
      (* global record id → (shard, local record id), built on demand *)
}

let manifest t = t.manifest

let open_manifest ?(config = default_config) m =
  let targets =
    Array.map
      (fun (s : Manifest.shard) ->
        match s.Manifest.location with
        | Manifest.Local { path; _ } ->
          let inv = IF.open_store (Storage.Store_file.open_existing path) in
          if config.cache_budget > 0 then
            IF.attach_cache inv
              (Invfile.Cache.create Invfile.Cache.Static
                 ~capacity:config.cache_budget);
          Local_handle inv
        | Manifest.Remote { host; port } -> Remote_addr { host; port })
      m.Manifest.shards
  in
  let stats =
    Array.map
      (fun _ ->
        { queries = 0; failures = 0; skips = 0; results = 0; total_ms = 0.;
          max_ms = 0. })
      m.Manifest.shards
  in
  {
    config;
    manifest = m;
    targets;
    stats;
    total_queries = 0;
    total_joins = 0;
    partial_answers = 0;
    closed = false;
    global_index = None;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (function Local_handle inv -> IF.close inv | Remote_addr _ -> ())
      t.targets
  end

(* --- relevance pruning ---

   Under the containment and equality joins every atom of the query must
   occur (as a leaf label) in any matching record, so a shard whose
   store lacks one of the query's atoms cannot contribute: key-existence
   probes, no list reads. Unsound for superset/overlap/similarity (the
   record's atoms may be a strict subset of the query's) and for
   wildcard leaves, so pruning is off there. *)

let prunable (cfg : E.config) =
  (not cfg.E.wildcards)
  &&
  match cfg.E.join with
  | Sem.Containment | Sem.Equality -> true
  | Sem.Superset | Sem.Overlap _ | Sem.Similarity _ -> false

(* A local shard is relevant when some query's atoms are all present in
   it (for a join, per-query pruning inside a relevant shard falls out of
   the prefix tree's own empty intersections); remote shards always are. *)
let relevant t values =
  let atom_sets =
    if prunable t.config.engine then List.map Nested.Value.atom_universe values
    else []
  in
  fun (p : target P.part) ->
    match p.P.src with
    | Remote_addr _ -> true
    | Local_handle inv ->
      atom_sets = [] || List.exists (List.for_all (IF.mem_atom inv)) atom_sets

(* --- the parts: one per shard, ids translated through the manifest --- *)

let parts t =
  List.mapi
    (fun i src ->
      let translate local =
        let ids = t.manifest.Manifest.shards.(i).Manifest.ids in
        if local >= 0 && local < Array.length ids then Some ids.(local)
        else
          raise
            (Shard_failed
               (i, Printf.sprintf "returned unmapped record id %d" local))
      in
      { P.label = Printf.sprintf "shard:%d" i; src; translate })
    (Array.to_list t.targets)

let describe_exn = function
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Server.Client.Handshake_failed m -> "handshake failed: " ^ m
  | Server.Wire.Protocol_error m -> "protocol error: " ^ m
  | Server.Wire.Closed -> "connection closed"
  | exn -> Printexc.to_string exn

(* A local shard's evaluation. A config or value the engine refuses is
   refused identically on every shard, so it escapes as the error the
   single-store engine raises; anything else is this shard's failure. *)
let on_local f =
  match f () with
  | v -> Ok v
  | exception ((Sem.Unsupported _ | Invalid_argument _) as exn) -> raise exn
  | exception exn -> Error (describe_exn exn)

(* One wire request to a remote shard under the configured deadline: a
   refused connection, an error reply or a malformed payload is the
   shard's failure reason. *)
let on_remote t ~host ~port request parse =
  match Server.Client.connect ~host ~port () with
  | exception exn -> Error (describe_exn exn)
  | client -> (
    Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
    match request client ~deadline_ms:t.config.remote_deadline_ms with
    | Ok payload -> parse payload
    | Error (code, msg) ->
      Error (Format.asprintf "%a: %s" Server.Wire.pp_error_code code msg)
    | exception exn -> Error (describe_exn exn))

let parse_ids payload =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | s :: rest -> (
      match int_of_string_opt s with
      | Some id -> go (id :: acc) rest
      | None -> Error (Printf.sprintf "malformed result id %S" s))
  in
  go [] (String.split_on_char ' ' payload)

(* --- scatter-gather ---

   Local shards run through the fan-out's domains, remote shards each on
   a thread of their own (they block on sockets). The gather applies the
   failure policy and the per-shard stats in shard order. *)

type 'a gathered = {
  answers : 'a list;  (* answered shards' results, last shard first *)
  warnings : (int * string) list;
  queried : int;
  skipped : int;
}

let on_thread job =
  let th = Thread.create job () in
  fun () -> Thread.join th

let scatter ?trace t ~relevant ~run ~translate ~size =
  let gather g i _ ~ms outcome =
    let st = t.stats.(i) in
    match outcome with
    | P.Skipped ->
      st.skips <- st.skips + 1;
      { g with skipped = g.skipped + 1 }
    | P.Answered v ->
      st.queries <- st.queries + 1;
      st.total_ms <- st.total_ms +. ms;
      st.max_ms <- Float.max st.max_ms ms;
      st.results <- st.results + size v;
      { g with answers = v :: g.answers; queried = g.queried + 1 }
    | P.Failed reason ->
      st.queries <- st.queries + 1;
      st.failures <- st.failures + 1;
      if t.config.fail_mode = Fail_fast then raise (Shard_failed (i, reason));
      { g with warnings = (i, reason) :: g.warnings; queried = g.queried + 1 }
  in
  let is_remote (p : target P.part) =
    match p.P.src with Remote_addr _ -> true | Local_handle _ -> false
  in
  let g =
    P.fan_out ?trace ~domains:t.config.domains ~relevant
      ~detach:(is_remote, on_thread) ~run ~translate ~fold:gather
      { answers = []; warnings = []; queried = 0; skipped = 0 }
      (parts t)
  in
  Option.iter
    (fun tr ->
      Obs.Trace.add_attr tr "shards_queried" (string_of_int g.queried);
      Obs.Trace.add_attr tr "shards_skipped" (string_of_int g.skipped))
    trace;
  if g.warnings <> [] then t.partial_answers <- t.partial_answers + 1;
  { g with warnings = List.rev g.warnings }

type outcome = {
  records : int list;
  warnings : (int * string) list;
  shards_queried : int;
  shards_skipped : int;
}

(* Under tracing, a remote shard is queried with the wire [Trace] verb so
   its server-side phase spans come back alongside the ids and nest under
   the shard's span. A remote server predating the verb answers with an
   error, surfaced per [fail_mode] like any shard failure. *)
let query ?trace t value =
  if t.closed then invalid_arg "Router.query: router is closed";
  let run ?trace (p : target P.part) =
    match (p.P.src, trace) with
    | Local_handle inv, _ ->
      on_local (fun () ->
          (E.query ~config:t.config.engine ?trace inv value).E.records)
    | Remote_addr { host; port }, None ->
      on_remote t ~host ~port
        (fun c ~deadline_ms ->
          Server.Client.query c ~deadline_ms (Nested.Value.to_string value))
        parse_ids
    | Remote_addr { host; port }, Some sub ->
      on_remote t ~host ~port
        (fun c ~deadline_ms ->
          Server.Client.trace c ~deadline_ms ~trace_id:(Obs.Trace.id sub)
            (Nested.Value.to_string value))
        (fun payload ->
          let result, spans = Server.Wire.split_traced payload in
          Obs.Trace.add_attr sub "remote" "true";
          Option.iter
            (fun (_, span) -> Obs.Trace.graft sub span)
            (Obs.Trace.of_wire spans);
          parse_ids result)
  in
  let g =
    scatter ?trace t ~relevant:(relevant t [ value ]) ~run ~translate:P.ids
      ~size:List.length
  in
  t.total_queries <- t.total_queries + 1;
  {
    records = List.sort Int.compare (List.concat g.answers);
    warnings = g.warnings;
    shards_queried = g.queried;
    shards_skipped = g.skipped;
  }

(* --- scatter-gather join --- *)

type join_outcome = {
  pairs : (int * int) list;
  join_warnings : (int * string) list;
  join_shards_queried : int;
  join_shards_skipped : int;
}

(* The outer collection is broadcast to every relevant shard. The Join
   verb carries no trace part (unlike Trace): a traced sharded join shows
   remote shards as flat [remote=true] spans with timings only. *)
let join ?trace t values =
  if t.closed then invalid_arg "Router.join: router is closed";
  let n_outer = List.length values in
  let config = { Join.Engine.default with Join.Engine.engine = t.config.engine } in
  let run ?trace (p : target P.part) =
    match p.P.src with
    | Local_handle inv ->
      on_local (fun () ->
          (Join.Engine.join ~config ?trace inv values).Join.Engine.pairs)
    | Remote_addr { host; port } ->
      on_remote t ~host ~port
        (fun c ~deadline_ms ->
          Server.Client.join c ~deadline_ms
            (String.concat "\n" (List.map Nested.Value.to_string values)))
        (fun payload ->
          match Server.Wire.split_join payload with
          | Error m -> Error ("malformed join payload: " ^ m)
          | Ok groups when List.length groups <> n_outer ->
            Error
              (Printf.sprintf "returned %d result line(s) for %d outer quer%s"
                 (List.length groups) n_outer
                 (if n_outer = 1 then "y" else "ies"))
          | Ok groups ->
            Option.iter (fun sub -> Obs.Trace.add_attr sub "remote" "true") trace;
            Ok
              (List.concat
                 (List.mapi (fun o -> List.map (fun id -> (o, id))) groups)))
  in
  let relevant = if values = [] then fun _ -> false else relevant t values in
  let g = scatter ?trace t ~relevant ~run ~translate:P.pairs ~size:List.length in
  t.total_joins <- t.total_joins + 1;
  {
    pairs =
      List.sort
        (fun (o1, r1) (o2, r2) ->
          if o1 <> o2 then Int.compare o1 o2 else Int.compare r1 r2)
        (List.concat g.answers);
    join_warnings = g.warnings;
    join_shards_queried = g.queried;
    join_shards_skipped = g.skipped;
  }

(* --- explain ---

   Sequential scatter: EXPLAIN is a diagnostic verb, so the per-shard
   sub-plans are produced one at a time in shard order — determinism over
   latency. Pruned shards still appear in the plan, flagged, so the
   pruning decision itself is visible; a failed remote becomes a stub
   sub-plan carrying the reason instead of raising (a diagnostic should
   degrade, not die). *)
let explain t value =
  if t.closed then invalid_arg "Router.explain: router is closed";
  let query = Nested.Value.to_string value in
  let addr = function
    | Remote_addr { host; port } -> [ ("remote", Printf.sprintf "%s:%d" host port) ]
    | Local_handle _ -> []
  in
  let run ?trace:_ (p : target P.part) =
    match p.P.src with
    | Local_handle inv ->
      Ok (E.explain_profile ~config:t.config.engine ~target:p.P.label inv value)
    | Remote_addr { host; port } ->
      on_remote t ~host ~port
        (fun c ~deadline_ms -> Server.Client.explain c ~deadline_ms query)
        (fun payload ->
          match Obs.Explain.of_wire payload with
          | Some sub ->
            Ok
              (Obs.Explain.make ~target:p.P.label ~query ~config:(addr p.P.src)
                 ~records:sub.Obs.Explain.records ~subs:[ sub ] ())
          | None -> Error "malformed explain payload")
  in
  let stub (p : target P.part) config =
    Obs.Explain.make ~target:p.P.label ~query ~config ~records:0 ()
  in
  let sub (subs, answered, pruned) _ p ~ms:_ = function
    | P.Skipped ->
      (stub p [ ("pruned", "atom-relevance") ] :: subs, answered, pruned + 1)
    | P.Answered plan -> (plan :: subs, answered + 1, pruned)
    | P.Failed reason ->
      (stub p (addr p.P.src @ [ ("failed", reason) ]) :: subs, answered, pruned)
  in
  let subs, answered, pruned =
    P.fan_out ~relevant:(relevant t [ value ]) ~run ~translate:(fun _ plan -> plan)
      ~fold:sub ([], 0, 0) (parts t)
  in
  let subs = List.rev subs in
  Obs.Explain.make ~target:"router" ~query
    ~config:
      [
        ("shards", string_of_int (Array.length t.targets));
        ("answered", string_of_int answered);
        ("pruned", string_of_int pruned);
        ( "fail_mode",
          match t.config.fail_mode with
          | Fail_fast -> "fail-fast"
          | Partial -> "partial" );
      ]
    ~records:(List.fold_left (fun n s -> n + s.Obs.Explain.records) 0 subs)
    ~subs ()

(* --- record access --- *)

let global_index t =
  match t.global_index with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 1024 in
    Array.iteri
      (fun s (entry : Manifest.shard) ->
        Array.iteri (fun local global -> Hashtbl.replace h global (s, local))
          entry.Manifest.ids)
      t.manifest.Manifest.shards;
    t.global_index <- Some h;
    h

let record_value t global =
  match Hashtbl.find_opt (global_index t) global with
  | None -> None
  | Some (s, local) -> (
    match t.targets.(s) with
    | Remote_addr _ -> None
    | Local_handle inv -> IF.record_value_opt inv local)

(* --- writes ---

   The owning shard is the one the partitioner would have placed the
   record on at build time, so a rebuild of the grown collection shards
   identically. Writes go straight through the shard's updater; the
   in-memory manifest tracks the new id mapping and the caller persists
   it with [save_manifest]. Only local shards accept writes — a remote
   shard's server owns its store. *)

let insert t value =
  if not (Nested.Value.is_set value) then
    invalid_arg "Router.insert: value must be a set, not a bare atom";
  let m = t.manifest in
  let shards = Array.length m.Manifest.shards in
  let global = m.Manifest.total_records in
  let s =
    Partitioner.assign m.Manifest.policy ~shards ~index:global value
  in
  match t.targets.(s) with
  | Remote_addr { host; port } ->
    raise
      (Shard_failed
         ( s,
           Printf.sprintf
             "record owned by remote shard %s:%d — writes route only to \
              local shards"
             host port ))
  | Local_handle inv ->
    let local = Invfile.Updater.add_value inv value in
    let entry = m.Manifest.shards.(s) in
    (if local <> Array.length entry.Manifest.ids then
       (* the store had more records than the manifest mapped — refuse to
          guess at a translation *)
       invalid_arg
         (Printf.sprintf
            "Router.insert: shard %d store/manifest id maps out of step" s));
    let entry =
      {
        entry with
        Manifest.records = entry.Manifest.records + 1;
        atoms = IF.atom_count inv;
        nodes = IF.node_count inv;
        ids = Array.append entry.Manifest.ids [| global |];
      }
    in
    let shards' = Array.copy m.Manifest.shards in
    shards'.(s) <- entry;
    t.manifest <-
      {
        m with
        Manifest.total_records = m.Manifest.total_records + 1;
        shards = shards';
      };
    (match t.global_index with
    | Some h -> Hashtbl.replace h global (s, local)
    | None -> ());
    global

let delete t global =
  match Hashtbl.find_opt (global_index t) global with
  | None -> false
  | Some (s, local) -> (
    match t.targets.(s) with
    | Remote_addr { host; port } ->
      raise
        (Shard_failed
           ( s,
             Printf.sprintf
               "record owned by remote shard %s:%d — writes route only to \
                local shards"
               host port ))
    | Local_handle inv -> Invfile.Updater.delete_record inv local)

let save_manifest t path = Manifest.save t.manifest path

(* --- observability --- *)

let local_io t =
  Array.fold_left
    (fun (lookups, hits, misses, reads, bytes) target ->
      match target with
      | Remote_addr _ -> (lookups, hits, misses, reads, bytes)
      | Local_handle inv ->
        let lk = IF.lookup_stats inv
        and st = (IF.store inv).Storage.Kv.stats in
        ( lookups + Storage.Io_stats.lookups lk,
          hits + Storage.Io_stats.hits lk,
          misses + Storage.Io_stats.misses lk,
          reads + Storage.Io_stats.reads st,
          bytes + Storage.Io_stats.bytes_read st ))
    (0, 0, 0, 0, 0) t.targets

let register reg ?(labels = []) t =
  let module M = Obs.Metrics in
  let cb ?help name kind f = M.register_callback reg ?help ~labels ~kind name f in
  cb "nscq_router_queries_total" `Counter (fun () ->
      float_of_int t.total_queries)
    ~help:"Scatter-gather queries routed";
  cb "nscq_router_joins_total" `Counter (fun () -> float_of_int t.total_joins)
    ~help:"Scatter-gather containment joins routed";
  cb "nscq_router_partial_answers_total" `Counter (fun () ->
      float_of_int t.partial_answers)
    ~help:"Answers missing at least one failed shard";
  Array.iteri
    (fun i st ->
      let shard_labels = ("shard", string_of_int i) :: labels in
      let scb ?help name kind f =
        M.register_callback reg ?help ~labels:shard_labels ~kind name f
      in
      scb "nscq_shard_queries_total" `Counter (fun () -> float_of_int st.queries)
        ~help:"Queries dispatched to the shard";
      scb "nscq_shard_failures_total" `Counter (fun () ->
          float_of_int st.failures)
        ~help:"Shard executions that failed";
      scb "nscq_shard_skips_total" `Counter (fun () -> float_of_int st.skips)
        ~help:"Queries pruned away from the shard by atom relevance";
      scb "nscq_shard_results_total" `Counter (fun () ->
          float_of_int st.results)
        ~help:"Record ids the shard contributed to answers";
      scb "nscq_shard_query_ms_max" `Gauge (fun () -> st.max_ms)
        ~help:"Slowest query the shard has answered, in ms";
      match t.targets.(i) with
      | Remote_addr _ -> ()
      | Local_handle inv ->
        (* two Io_stats per local shard — list lookups and raw store I/O —
           disambiguated by a [source] label so the metric names don't
           collide *)
        Storage.Io_stats.register reg
          ~labels:(("source", "lists") :: shard_labels)
          (IF.lookup_stats inv);
        Storage.Io_stats.register reg
          ~labels:(("source", "store") :: shard_labels)
          (IF.store inv).Storage.Kv.stats)
    t.stats

let render_stats t =
  let b = Buffer.create 512 in
  let n_local =
    Array.fold_left
      (fun acc -> function Local_handle _ -> acc + 1 | Remote_addr _ -> acc)
      0 t.targets
  in
  Printf.bprintf b
    "router: %d shard(s) (%d local, %d remote), %d quer%s, %d join(s), %d \
     partial answer(s)\n"
    (Array.length t.targets) n_local
    (Array.length t.targets - n_local)
    t.total_queries
    (if t.total_queries = 1 then "y" else "ies")
    t.total_joins t.partial_answers;
  let lookups, hits, misses, reads, bytes = local_io t in
  Printf.bprintf b
    "local io: lookups=%d hits=%d misses=%d reads=%d bytes_read=%d\n" lookups
    hits misses reads bytes;
  Array.iteri
    (fun i st ->
      let where =
        match t.manifest.Manifest.shards.(i).Manifest.location with
        | Manifest.Local { path; _ } -> path
        | Manifest.Remote { host; port } -> Printf.sprintf "%s:%d" host port
      in
      let mean = if st.queries = 0 then 0. else st.total_ms /. float_of_int st.queries in
      Printf.bprintf b
        "shard %-3d %-40s queries=%d skipped=%d failures=%d results=%d \
         mean_ms=%.3f max_ms=%.3f\n"
        i where st.queries st.skips st.failures st.results mean st.max_ms)
    t.stats;
  Buffer.contents b

(* --- serving --- *)

let ids_payload records = String.concat " " (List.map string_of_int records)

let dispatch_backend ?(config = default_config) m () =
  (* concurrency inside a server comes from the worker pool; each worker's
     router walks its local shards sequentially *)
  let t = open_manifest ~config:{ config with domains = 1 } m in
  let run_one ?trace v =
    let o = query ?trace t v in
    List.iter
      (fun (i, reason) ->
        Log.warn (fun f -> f "shard %d dropped from answer: %s" i reason))
      o.warnings;
    ids_payload o.records
  in
  {
    Server.Dispatch.run_literals =
      (fun ?(traces = []) values ->
        let traces = Array.of_list traces in
        List.mapi
          (fun i v ->
            run_one ?trace:(if i < Array.length traces then traces.(i) else None) v)
          values);
    run_statement =
      (fun _ ->
        invalid_arg
          "NSCQL statements are not supported over a sharded collection \
           (literal queries only)");
    run_join =
      (fun values ->
        let o = join t values in
        List.iter
          (fun (i, reason) ->
            Log.warn (fun f -> f "shard %d dropped from join: %s" i reason))
          o.join_warnings;
        Server.Wire.join_payload
          (Join.Engine.group ~outer:(List.length values) o.pairs));
    run_traced =
      (fun ~trace_id v ->
        let trace = Obs.Trace.create ?id:trace_id "query" in
        let result = run_one ~trace v in
        Server.Wire.traced_payload ~result
          ~spans:(Obs.Trace.to_wire ~id:(Obs.Trace.id trace)
                    (Obs.Trace.finish trace)));
    run_insert =
      (fun _ ->
        (* each worker owns a private router over the same manifest;
           a write through one would be invisible to its siblings. The
           embedded Router API (one router, one owner) supports writes;
           the serving path does not. *)
        invalid_arg
          "a sharded collection is served read-only (write through nscq \
           shard insert, or serve a live store)");
    run_delete =
      (fun _ ->
        invalid_arg
          "a sharded collection is served read-only (write through nscq \
           shard delete, or serve a live store)");
    run_explain = (fun v -> Obs.Explain.to_wire (explain t v));
    io_totals =
      (fun () ->
        let lookups, hits, misses, reads, bytes_read = local_io t in
        { Server.Dispatch.lookups; hits; misses; reads; bytes_read });
    close = (fun () -> close t);
  }
