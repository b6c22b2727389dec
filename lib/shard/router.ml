module IF = Invfile.Inverted_file
module E = Containment.Engine
module Sem = Containment.Semantics

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

let shard_relevant inv atoms = List.for_all (IF.mem_atom inv) atoms

(* --- per-shard execution --- *)

type shard_outcome =
  | Skipped
  | Answered of int list  (* shard-local record ids *)
  | Failed of string

let describe_exn = function
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Server.Client.Handshake_failed m -> "handshake failed: " ^ m
  | Server.Wire.Protocol_error m -> "protocol error: " ^ m
  | Server.Wire.Closed -> "connection closed"
  | exn -> Printexc.to_string exn

(* Each traced local shard evaluates into its own sub-trace (same trace
   id, root named [shard:i]) — a Trace.t is single-owner mutable state, so
   domains must never share one. The finished sub-trees are grafted into
   the caller's trace after the gather barrier. *)
let run_local t ?trace value i inv =
  match E.query ~config:t.config.engine ?trace inv value with
  | r -> Answered r.E.records
  | exception ((Sem.Unsupported _ | Invalid_argument _) as exn) ->
    (* a config the engine refuses is refused identically on every
       shard: surface it as the error the single-store engine raises *)
    raise exn
  | exception exn -> Failed (Printf.sprintf "shard %d: %s" i (describe_exn exn))

let parse_id_payload payload =
  if payload = "" then Answered []
  else
    let rec go acc = function
      | [] -> Answered (List.rev acc)
      | s :: rest -> (
        match int_of_string_opt s with
        | Some id -> go (id :: acc) rest
        | None -> Failed (Printf.sprintf "malformed result id %S" s))
    in
    go [] (List.filter (fun s -> s <> "") (String.split_on_char ' ' payload))

(* Under tracing, a remote shard is queried with the wire [Trace] verb so
   its server-side phase spans come back alongside the ids; the parsed
   tree is returned for grafting. A remote server predating the verb
   answers with an error, surfaced per [fail_mode] like any shard
   failure. *)
let run_remote t ?trace_id text ~host ~port =
  match Server.Client.connect ~host ~port () with
  | exception exn -> (Failed (describe_exn exn), None)
  | client -> (
    Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
    let deadline_ms = t.config.remote_deadline_ms in
    match trace_id with
    | None -> (
      match Server.Client.query client ~deadline_ms text with
      | Ok payload -> (parse_id_payload payload, None)
      | Error (code, msg) ->
        (Failed (Format.asprintf "%a: %s" Server.Wire.pp_error_code code msg), None)
      | exception exn -> (Failed (describe_exn exn), None))
    | Some tid -> (
      match Server.Client.trace client ~deadline_ms ~trace_id:tid text with
      | Ok payload ->
        let result, spans = Server.Wire.split_traced payload in
        let span = Option.map snd (Obs.Trace.of_wire spans) in
        (parse_id_payload result, span)
      | Error (code, msg) ->
        (Failed (Format.asprintf "%a: %s" Server.Wire.pp_error_code code msg), None)
      | exception exn -> (Failed (describe_exn exn), None)))

(* --- scatter-gather --- *)

type outcome = {
  records : int list;
  warnings : (int * string) list;
  shards_queried : int;
  shards_skipped : int;
}

let slice ~slices i items = List.filteri (fun j _ -> j mod slices = i) items

let query ?trace t value =
  if t.closed then invalid_arg "Router.query: router is closed";
  let n = Array.length t.targets in
  let atoms =
    if prunable t.config.engine then Nested.Value.atom_universe value else []
  in
  let outcomes = Array.make n Skipped in
  let elapsed = Array.make n 0. in
  let started = Array.make n 0. in
  (* per-shard span sources when tracing: a sub-trace per local shard, a
     parsed wire tree per remote shard *)
  let subtraces = Array.make n None in
  let remote_spans = Array.make n None in
  let trace_id = Option.map Obs.Trace.id trace in
  let timed i f =
    let t0 = Unix.gettimeofday () in
    started.(i) <- t0;
    let r = f () in
    elapsed.(i) <- 1000. *. (Unix.gettimeofday () -. t0);
    r
  in
  (* split the shard list by kind; remote shards run on threads (they
     block on sockets), local shards on domains *)
  let locals = ref [] and remotes = ref [] in
  Array.iteri
    (fun i -> function
      | Local_handle inv ->
        if atoms = [] || shard_relevant inv atoms then
          locals := (i, inv) :: !locals
      | Remote_addr { host; port } -> remotes := (i, host, port) :: !remotes)
    t.targets;
  let locals = List.rev !locals and remotes = List.rev !remotes in
  (match trace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun (i, _) ->
        subtraces.(i) <-
          Some
            (Obs.Trace.create ~id:(Obs.Trace.id tr)
               (Printf.sprintf "shard:%d" i)))
      locals);
  let text = lazy (Nested.Value.to_string value) in
  let remote_threads =
    List.map
      (fun (i, host, port) ->
        Thread.create
          (fun () ->
            let o, span =
              timed i (fun () ->
                  run_remote t ?trace_id (Lazy.force text) ~host ~port)
            in
            outcomes.(i) <- o;
            remote_spans.(i) <- span)
          ())
      remotes
  in
  (* engine refusals (unsupported semantics, atom query) must propagate
     as such, not as shard failures — run one local shard in the calling
     domain first so the exception escapes before any fan-out result is
     folded; the rest run in parallel *)
  let run_locals jobs =
    List.map
      (fun (i, inv) ->
        (i, timed i (fun () -> run_local t ?trace:subtraces.(i) value i inv)))
      jobs
  in
  let local_results =
    match locals with
    | [] -> []
    | (i0, inv0) :: rest ->
      let first =
        (i0, timed i0 (fun () -> run_local t ?trace:subtraces.(i0) value i0 inv0))
      in
      let slices = min (t.config.domains - 1) (List.length rest) in
      let others =
        if slices <= 1 then run_locals rest
        else
          List.init slices (fun k ->
              Domain.spawn (fun () -> run_locals (slice ~slices k rest)))
          |> List.concat_map Domain.join
      in
      first :: others
  in
  List.iter (fun (i, o) -> outcomes.(i) <- o) local_results;
  List.iter Thread.join remote_threads;
  (* fold in shard order: deterministic gathering *)
  let parts = ref [] and warnings = ref [] and queried = ref 0 and skipped = ref 0 in
  Array.iteri
    (fun i o ->
      let st = t.stats.(i) in
      match o with
      | Skipped -> incr skipped; st.skips <- st.skips + 1
      | Answered locals ->
        incr queried;
        st.queries <- st.queries + 1;
        st.total_ms <- st.total_ms +. elapsed.(i);
        if elapsed.(i) > st.max_ms then st.max_ms <- elapsed.(i);
        let ids = t.manifest.Manifest.shards.(i).Manifest.ids in
        let translated =
          List.map
            (fun local ->
              if local >= 0 && local < Array.length ids then ids.(local)
              else
                raise
                  (Shard_failed
                     (i, Printf.sprintf "returned unmapped record id %d" local)))
            locals
        in
        st.results <- st.results + List.length translated;
        parts := translated :: !parts
      | Failed reason -> (
        incr queried;
        st.queries <- st.queries + 1;
        st.failures <- st.failures + 1;
        match t.config.fail_mode with
        | Fail_fast -> raise (Shard_failed (i, reason))
        | Partial -> warnings := (i, reason) :: !warnings))
    outcomes;
  (* graft per-shard span trees in shard order, then summarize on the
     caller's innermost span *)
  (match trace with
  | None -> ()
  | Some tr ->
    Array.iteri
      (fun i o ->
        let shard_span =
          match subtraces.(i) with
          | Some sub -> Some (Obs.Trace.finish sub)
          | None -> (
            match remote_spans.(i) with
            | Some remote ->
              Some
                (Obs.Trace.make_span
                   ~name:(Printf.sprintf "shard:%d" i)
                   ~start_s:started.(i)
                   ~duration_s:(elapsed.(i) /. 1000.)
                   ~attrs:[ ("remote", "true") ]
                   ~children:[ remote ] ())
            | None -> (
              match o with
              | Failed reason ->
                Some
                  (Obs.Trace.make_span
                     ~name:(Printf.sprintf "shard:%d" i)
                     ~start_s:started.(i)
                     ~duration_s:(elapsed.(i) /. 1000.)
                     ~attrs:[ ("failed", reason) ] ())
              | Skipped | Answered _ -> None))
        in
        Option.iter (Obs.Trace.graft tr) shard_span)
      outcomes;
    Obs.Trace.add_attr tr "shards_queried" (string_of_int !queried);
    Obs.Trace.add_attr tr "shards_skipped" (string_of_int !skipped));
  t.total_queries <- t.total_queries + 1;
  if !warnings <> [] then t.partial_answers <- t.partial_answers + 1;
  {
    records = List.sort Int.compare (List.concat !parts);
    warnings = List.rev !warnings;
    shards_queried = !queried;
    shards_skipped = !skipped;
  }

(* --- scatter-gather join --- *)

type join_outcome = {
  pairs : (int * int) list;
  join_warnings : (int * string) list;
  join_shards_queried : int;
  join_shards_skipped : int;
}

(* Per-shard join outcomes carry one local-id list per outer query. *)
type shard_join =
  | J_skipped
  | J_answered of int list list
  | J_failed of string

let join_config t = { Join.Engine.default with Join.Engine.engine = t.config.engine }

let run_local_join t ?trace values i inv =
  match Join.Engine.join ~config:(join_config t) ?trace inv values with
  | r ->
    J_answered
      (Join.Engine.group ~outer:(List.length values) r.Join.Engine.pairs)
  | exception ((Sem.Unsupported _ | Invalid_argument _) as exn) ->
    (* a config or value the join engine refuses is refused identically
       on every shard: surface it as the single-store engine would *)
    raise exn
  | exception exn -> J_failed (Printf.sprintf "shard %d: %s" i (describe_exn exn))

(* The Join verb carries no trace part (unlike Trace): a traced sharded
   join shows remote shards as flat [remote=true] spans with timings
   only. *)
let run_remote_join t text ~host ~port =
  match Server.Client.connect ~host ~port () with
  | exception exn -> J_failed (describe_exn exn)
  | client -> (
    Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
    match
      Server.Client.join client ~deadline_ms:t.config.remote_deadline_ms text
    with
    | Ok payload -> (
      match Server.Wire.split_join payload with
      | Ok groups -> J_answered groups
      | Error m -> J_failed ("malformed join payload: " ^ m))
    | Error (code, msg) ->
      J_failed (Format.asprintf "%a: %s" Server.Wire.pp_error_code code msg)
    | exception exn -> J_failed (describe_exn exn))

let join ?trace t values =
  if t.closed then invalid_arg "Router.join: router is closed";
  let n = Array.length t.targets in
  let n_outer = List.length values in
  if n_outer = 0 then begin
    t.total_joins <- t.total_joins + 1;
    Array.iter (fun st -> st.skips <- st.skips + 1) t.stats;
    { pairs = []; join_warnings = []; join_shards_queried = 0;
      join_shards_skipped = n }
  end
  else begin
    (* broadcast the outer collection; prune a local shard only when *no*
       outer query's atoms are all present (per-query pruning inside the
       shard falls out of the join's own empty intersections) *)
    let atom_sets =
      if prunable t.config.engine then
        List.map Nested.Value.atom_universe values
      else []
    in
    let relevant inv =
      atom_sets = [] || List.exists (fun atoms -> shard_relevant inv atoms) atom_sets
    in
    let outcomes = Array.make n J_skipped in
    let elapsed = Array.make n 0. in
    let started = Array.make n 0. in
    let subtraces = Array.make n None in
    let timed i f =
      let t0 = Unix.gettimeofday () in
      started.(i) <- t0;
      let r = f () in
      elapsed.(i) <- 1000. *. (Unix.gettimeofday () -. t0);
      r
    in
    let locals = ref [] and remotes = ref [] in
    Array.iteri
      (fun i -> function
        | Local_handle inv -> if relevant inv then locals := (i, inv) :: !locals
        | Remote_addr { host; port } -> remotes := (i, host, port) :: !remotes)
      t.targets;
    let locals = List.rev !locals and remotes = List.rev !remotes in
    (match trace with
    | None -> ()
    | Some tr ->
      List.iter
        (fun (i, _) ->
          subtraces.(i) <-
            Some
              (Obs.Trace.create ~id:(Obs.Trace.id tr)
                 (Printf.sprintf "shard:%d" i)))
        locals);
    let text =
      lazy (String.concat "\n" (List.map Nested.Value.to_string values))
    in
    let remote_threads =
      List.map
        (fun (i, host, port) ->
          Thread.create
            (fun () ->
              outcomes.(i) <-
                timed i (fun () ->
                    run_remote_join t (Lazy.force text) ~host ~port))
            ())
        remotes
    in
    (* engine refusals propagate from the first local shard, run in the
       calling domain, before any fan-out result is folded (cf. query) *)
    let run_locals jobs =
      List.map
        (fun (i, inv) ->
          (i, timed i (fun () ->
                 run_local_join t ?trace:subtraces.(i) values i inv)))
        jobs
    in
    let local_results =
      match locals with
      | [] -> []
      | (i0, inv0) :: rest ->
        let first =
          ( i0,
            timed i0 (fun () ->
                run_local_join t ?trace:subtraces.(i0) values i0 inv0) )
        in
        let slices = min (t.config.domains - 1) (List.length rest) in
        let others =
          if slices <= 1 then run_locals rest
          else
            List.init slices (fun k ->
                Domain.spawn (fun () -> run_locals (slice ~slices k rest)))
            |> List.concat_map Domain.join
        in
        first :: others
    in
    List.iter (fun (i, o) -> outcomes.(i) <- o) local_results;
    List.iter Thread.join remote_threads;
    (* fold in shard order: deterministic gathering *)
    let parts = ref []
    and warnings = ref []
    and queried = ref 0
    and skipped = ref 0 in
    let fail i reason st =
      st.failures <- st.failures + 1;
      match t.config.fail_mode with
      | Fail_fast -> raise (Shard_failed (i, reason))
      | Partial -> warnings := (i, reason) :: !warnings
    in
    Array.iteri
      (fun i o ->
        let st = t.stats.(i) in
        match o with
        | J_skipped ->
          incr skipped;
          st.skips <- st.skips + 1
        | J_answered groups ->
          incr queried;
          st.queries <- st.queries + 1;
          st.total_ms <- st.total_ms +. elapsed.(i);
          if elapsed.(i) > st.max_ms then st.max_ms <- elapsed.(i);
          if List.length groups <> n_outer then
            fail i
              (Printf.sprintf "returned %d result line(s) for %d outer quer%s"
                 (List.length groups) n_outer
                 (if n_outer = 1 then "y" else "ies"))
              st
          else begin
            let ids = t.manifest.Manifest.shards.(i).Manifest.ids in
            let count = ref 0 in
            List.iteri
              (fun qi locals ->
                List.iter
                  (fun local ->
                    if local >= 0 && local < Array.length ids then begin
                      parts := (qi, ids.(local)) :: !parts;
                      incr count
                    end
                    else
                      raise
                        (Shard_failed
                           ( i,
                             Printf.sprintf "returned unmapped record id %d"
                               local )))
                  locals)
              groups;
            st.results <- st.results + !count
          end
        | J_failed reason ->
          incr queried;
          st.queries <- st.queries + 1;
          fail i reason st)
      outcomes;
    (match trace with
    | None -> ()
    | Some tr ->
      Array.iteri
        (fun i o ->
          let shard_span =
            match subtraces.(i) with
            | Some sub -> Some (Obs.Trace.finish sub)
            | None -> (
              match o with
              | J_answered _ ->
                Some
                  (Obs.Trace.make_span
                     ~name:(Printf.sprintf "shard:%d" i)
                     ~start_s:started.(i)
                     ~duration_s:(elapsed.(i) /. 1000.)
                     ~attrs:[ ("remote", "true") ] ())
              | J_failed reason ->
                Some
                  (Obs.Trace.make_span
                     ~name:(Printf.sprintf "shard:%d" i)
                     ~start_s:started.(i)
                     ~duration_s:(elapsed.(i) /. 1000.)
                     ~attrs:[ ("failed", reason) ] ())
              | J_skipped -> None)
          in
          Option.iter (Obs.Trace.graft tr) shard_span)
        outcomes;
      Obs.Trace.add_attr tr "shards_queried" (string_of_int !queried);
      Obs.Trace.add_attr tr "shards_skipped" (string_of_int !skipped));
    t.total_joins <- t.total_joins + 1;
    if !warnings <> [] then t.partial_answers <- t.partial_answers + 1;
    let pair_compare (o1, r1) (o2, r2) =
      if o1 <> o2 then Int.compare o1 o2 else Int.compare r1 r2
    in
    {
      pairs = List.sort pair_compare !parts;
      join_warnings = List.rev !warnings;
      join_shards_queried = !queried;
      join_shards_skipped = !skipped;
    }
  end

(* --- explain --- *)

(* Sequential scatter: EXPLAIN is a diagnostic verb, so the per-shard
   sub-plans are produced one at a time in shard order — determinism over
   latency. Pruned shards still appear in the plan, flagged, so the
   pruning decision itself is visible; a failed remote becomes a stub
   sub-plan carrying the reason instead of raising (a diagnostic should
   degrade, not die). *)
let explain t value =
  if t.closed then invalid_arg "Router.explain: router is closed";
  let query_text = Nested.Value.to_string value in
  let atoms =
    if prunable t.config.engine then Nested.Value.atom_universe value else []
  in
  let pruned = ref 0 and answered = ref 0 in
  let sub_of_shard i target =
    let label = Printf.sprintf "shard:%d" i in
    match target with
    | Local_handle inv ->
      if atoms <> [] && not (shard_relevant inv atoms) then begin
        incr pruned;
        Obs.Explain.make ~target:label ~query:query_text
          ~config:[ ("pruned", "atom-relevance") ]
          ~records:0 ()
      end
      else begin
        incr answered;
        E.explain_profile ~config:t.config.engine ~target:label inv value
      end
    | Remote_addr { host; port } -> (
      let failed reason =
        Obs.Explain.make ~target:label ~query:query_text
          ~config:
            [ ("remote", Printf.sprintf "%s:%d" host port);
              ("failed", reason) ]
          ~records:0 ()
      in
      match Server.Client.connect ~host ~port () with
      | exception exn -> failed (describe_exn exn)
      | client -> (
        Fun.protect ~finally:(fun () -> Server.Client.close client)
        @@ fun () ->
        match
          Server.Client.explain client
            ~deadline_ms:t.config.remote_deadline_ms query_text
        with
        | Ok payload -> (
          match Obs.Explain.of_wire payload with
          | Some sub ->
            incr answered;
            Obs.Explain.make ~target:label ~query:query_text
              ~config:[ ("remote", Printf.sprintf "%s:%d" host port) ]
              ~records:sub.Obs.Explain.records ~subs:[ sub ] ()
          | None -> failed "malformed explain payload")
        | Error (code, msg) ->
          failed (Format.asprintf "%a: %s" Server.Wire.pp_error_code code msg)
        | exception exn -> failed (describe_exn exn)))
  in
  let subs =
    List.init (Array.length t.targets) (fun i -> sub_of_shard i t.targets.(i))
  in
  let records = List.fold_left (fun n s -> n + s.Obs.Explain.records) 0 subs in
  Obs.Explain.make ~target:"router" ~query:query_text
    ~config:
      [
        ("shards", string_of_int (Array.length t.targets));
        ("answered", string_of_int !answered);
        ("pruned", string_of_int !pruned);
        ( "fail_mode",
          match t.config.fail_mode with
          | Fail_fast -> "fail-fast"
          | Partial -> "partial" );
      ]
    ~records ~subs ()

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
        List.mapi
          (fun idx v ->
            let trace = match List.nth_opt traces idx with
              | Some t -> t
              | None -> None
            in
            run_one ?trace v)
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
