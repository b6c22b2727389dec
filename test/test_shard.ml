(* The sharded collection must be indistinguishable from one store: for
   every semantics and algorithm, the scatter-gather router's global
   record ids are byte-identical to the single-store oracle's — locally,
   through remote shard servers, after resharding either direction, and
   (degraded, minus the dead shard's records) when a shard is down. *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module Sem = Containment.Semantics
module V = Nested.Value
module M = Shard.Manifest
module P = Shard.Partitioner
module R = Shard.Router

let check_ids = Alcotest.(check (list int))

(* --- the shared collection, oracle, and query set --- *)

let collection =
  let st = Random.State.make [| 11 |] in
  List.map Testutil.v Testutil.licences_strings
  @ List.init 36 (fun _ -> Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st)

let queries =
  let st = Random.State.make [| 23 |] in
  let subs =
    List.filteri (fun i _ -> i mod 3 = 0) collection
    |> List.map (fun r ->
           let q = Testutil.shrink_to_subquery st r in
           if V.is_set q && V.elements q <> [] then q else r)
  in
  List.map Testutil.v [ "{UK, {A, motorbike}}"; "{car}"; "{nothere}" ] @ subs

let with_oracle f =
  Testutil.with_temp_path ".log" @@ fun path ->
  let b = Invfile.Builder.create (Storage.Log_store.create path) in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) collection;
  let inv = Invfile.Builder.finish b in
  Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv)

let remove_stores (m : M.t) =
  Array.iter
    (fun (s : M.shard) ->
      match s.M.location with
      | M.Local { path; _ } -> ( try Sys.remove path with Sys_error _ -> ())
      | M.Remote _ -> ())
    m.M.shards

let with_built ?(policy = M.Hash) ~shards f =
  Testutil.with_temp_path ".manifest" @@ fun mpath ->
  let m = P.build ~policy ~shards ~manifest_path:mpath collection in
  Fun.protect ~finally:(fun () -> remove_stores m) (fun () -> f mpath m)

(* [None]: the single-store engine refuses the config. *)
let oracle_records config inv q =
  match E.query ~config inv q with
  | r -> Some r.E.records
  | exception Sem.Unsupported _ -> None

(* --- result equivalence, local shards --- *)

(* The last config is one the engine refuses (superset under isomorphic
   embedding); the superset join prunes no shard, so every shard sees
   the refusal. *)
let configs =
  List.concat_map
    (fun algorithm ->
      List.map
        (fun join -> { E.default with E.algorithm; join })
        [ Sem.Containment; Sem.Equality; Sem.Superset ])
    [ E.Bottom_up; E.Top_down ]
  @ [ { E.default with E.join = Sem.Superset; embedding = Sem.Iso } ]

let config_label (c : E.config) =
  Format.asprintf "%s/%a"
    (match c.E.algorithm with E.Bottom_up -> "bottom-up" | _ -> "top-down")
    Sem.pp_join c.E.join

(* Every config at 1, 2 and 4 local domains (3 shards: sequential, the
   caller plus one spawned domain, the caller plus two). A config the
   engine refuses escapes from the spawned domains as the engine's own
   exception, not as a shard failure. *)
let test_local_equivalence policy () =
  with_built ~policy ~shards:3 @@ fun _mpath m ->
  with_oracle @@ fun oracle ->
  List.iter
    (fun (config, domains) ->
      let r =
        R.open_manifest
          ~config:{ R.default_config with R.engine = config; domains }
          m
      in
      Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
      List.iter
        (fun q ->
          let label =
            Printf.sprintf "%s %s at %d domain(s)" (config_label config)
              (V.to_string q) domains
          in
          match oracle_records config oracle q with
          | None -> (
            match R.query r q with
            | _ -> Alcotest.failf "%s: must be refused" label
            | exception Sem.Unsupported _ -> ())
          | Some want ->
            let o = R.query r q in
            Alcotest.(check (list (pair int string)))
              "no warnings" [] o.R.warnings;
            check_ids label want o.R.records)
        queries)
    (List.concat_map (fun c -> List.map (fun d -> (c, d)) [ 1; 2; 4 ]) configs)

let test_record_value_roundtrip () =
  with_built ~shards:3 @@ fun _mpath m ->
  with_oracle @@ fun oracle ->
  let r = R.open_manifest m in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iteri
    (fun i _ ->
      match R.record_value r i with
      | None -> Alcotest.failf "global record %d not found" i
      | Some v ->
        Alcotest.check Testutil.value_testable
          (Printf.sprintf "record %d" i)
          (IF.record_value oracle i) v)
    collection;
  Alcotest.(check (option Testutil.value_testable))
    "unknown id" None
    (R.record_value r 100_000)

(* --- remote shards through real servers --- *)

let serve_cfg =
  {
    Server.Service.default_config with
    Server.Service.port = 0;
    domains = 1;
    stats_interval_s = 0.;
  }

let serve_shard (s : M.shard) =
  match s.M.location with
  | M.Remote _ -> assert false
  | M.Local { path; _ } ->
    Server.Service.start serve_cfg ~open_handle:(fun () ->
        IF.open_store (Storage.Store_file.open_existing path))

let remote_manifest (m : M.t) ports =
  M.make ~policy:m.M.policy ~total_records:m.M.total_records
    (List.mapi
       (fun i (s : M.shard) ->
         { s with M.location = M.Remote { host = "127.0.0.1"; port = ports.(i) } })
       (Array.to_list m.M.shards))

let test_remote_equivalence () =
  with_built ~shards:3 @@ fun _mpath m ->
  with_oracle @@ fun oracle ->
  let servers = Array.map serve_shard m.M.shards in
  Fun.protect ~finally:(fun () -> Array.iter Server.Service.stop servers)
  @@ fun () ->
  let rm = remote_manifest m (Array.map Server.Service.port servers) in
  let r = R.open_manifest rm in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iter
    (fun q ->
      match oracle_records E.default oracle q with
      | None -> ()
      | Some want ->
        let o = R.query r q in
        check_ids (V.to_string q) want o.R.records;
        Alcotest.(check int) "all shards queried" 3 o.R.shards_queried)
    queries

(* --- a dead shard: Partial degrades, Fail_fast raises --- *)

let test_dead_shard () =
  with_built ~shards:3 @@ fun _mpath m ->
  with_oracle @@ fun oracle ->
  (* serve shards 0 and 1; shard 2 points at a port nobody listens on *)
  let s0 = serve_shard m.M.shards.(0) and s1 = serve_shard m.M.shards.(1) in
  let dead_port =
    let tmp = serve_shard m.M.shards.(2) in
    let p = Server.Service.port tmp in
    Server.Service.stop tmp;
    p
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Service.stop s0;
      Server.Service.stop s1)
  @@ fun () ->
  let rm =
    remote_manifest m
      [| Server.Service.port s0; Server.Service.port s1; dead_port |]
  in
  let dead_ids =
    Array.fold_left (fun acc id -> id :: acc) [] m.M.shards.(2).M.ids
  in
  (* Partial: the surviving shards' records, plus one warning *)
  let r =
    R.open_manifest ~config:{ R.default_config with R.fail_mode = R.Partial } rm
  in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iter
    (fun q ->
      match oracle_records E.default oracle q with
      | None -> ()
      | Some want ->
        let o = R.query r q in
        Alcotest.(check (list int))
          ("degraded " ^ V.to_string q)
          (List.filter (fun id -> not (List.mem id dead_ids)) want)
          o.R.records;
        (match o.R.warnings with
        | [ (2, _) ] -> ()
        | ws ->
          Alcotest.failf "expected one warning for shard 2, got %d"
            (List.length ws)))
    queries;
  (* Fail_fast: the first dead shard aborts the query *)
  let rf = R.open_manifest rm in
  Fun.protect ~finally:(fun () -> R.close rf) @@ fun () ->
  match R.query rf (Testutil.v "{car}") with
  | exception R.Shard_failed (2, _) -> ()
  | exception R.Shard_failed (i, _) ->
    Alcotest.failf "wrong shard blamed: %d" i
  | _ -> Alcotest.fail "expected Shard_failed"

(* --- resharding preserves answers --- *)

let with_resharded ~from_shards ~to_shards f =
  with_built ~shards:from_shards @@ fun _mpath m ->
  Testutil.with_temp_path ".manifest" @@ fun out ->
  let m' = P.reshard ~shards:to_shards ~output:out m in
  Fun.protect ~finally:(fun () -> remove_stores m') (fun () -> f m')

let test_reshard_equivalence ~from_shards ~to_shards () =
  with_resharded ~from_shards ~to_shards @@ fun m' ->
  with_oracle @@ fun oracle ->
  Alcotest.(check int)
    "shard count" to_shards
    (Array.length m'.M.shards);
  let r = R.open_manifest m' in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iter
    (fun q ->
      match oracle_records E.default oracle q with
      | None -> ()
      | Some want -> check_ids (V.to_string q) want (R.query r q).R.records)
    queries

(* --- serving a manifest: nscq serve -s <manifest>, in-process --- *)

let test_serve_sharded () =
  with_built ~shards:3 @@ fun _mpath m ->
  with_oracle @@ fun oracle ->
  let srv =
    Server.Service.start_with serve_cfg
      ~open_backend:(R.dispatch_backend m)
  in
  Fun.protect ~finally:(fun () -> Server.Service.stop srv) @@ fun () ->
  let c = Server.Client.connect ~port:(Server.Service.port srv) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  List.iter
    (fun q ->
      match oracle_records E.default oracle q with
      | None -> ()
      | Some want -> (
        match Server.Client.query c (V.to_string q) with
        | Ok payload ->
          let got =
            if payload = "" then []
            else List.map int_of_string (String.split_on_char ' ' payload)
          in
          check_ids ("served " ^ V.to_string q) want got
        | Error (code, msg) ->
          Alcotest.failf "server refused %s: %a %s" (V.to_string q)
            Server.Wire.pp_error_code code msg))
    queries;
  (* NSCQL has no sharded execution: a clean refusal, not a crash *)
  match Server.Client.query c "COUNT CONTAINS {car}" with
  | Error (Server.Wire.Server_error, _) | Error (Server.Wire.Bad_request, _) ->
    ()
  | Ok _ -> Alcotest.fail "NSCQL over shards should be refused"
  | Error (code, _) ->
    Alcotest.failf "unexpected refusal code %a" Server.Wire.pp_error_code code

(* --- manifest encoding --- *)

let sample_manifest =
  M.make ~policy:M.Round_robin ~total_records:7
    [
      {
        M.location = M.Local { path = "/tmp/a.shard0.tch"; backend = `Hash };
        records = 3;
        atoms = 10;
        nodes = 4;
        ids = [| 0; 3; 6 |];
      };
      {
        M.location = M.Remote { host = "10.1.2.3"; port = 7411 };
        records = 4;
        (* non-monotonic ids, as a merge reshard produces *)
        atoms = 12;
        nodes = 5;
        ids = [| 5; 1; 4; 2 |];
      };
    ]

let test_manifest_roundtrip () =
  Testutil.with_temp_path ".manifest" @@ fun path ->
  M.save sample_manifest path;
  Alcotest.(check bool) "detected" true (M.is_manifest_file path);
  let m = M.load path in
  Alcotest.(check bool) "roundtrip" true (m = sample_manifest);
  Alcotest.(check int) "live records" 7 (M.live_records m);
  Alcotest.(check (option (pair int int)))
    "id range of merged shard" (Some (1, 5))
    (M.id_range m.M.shards.(1))

let test_manifest_corruption () =
  Testutil.with_temp_path ".manifest" @@ fun path ->
  M.save sample_manifest path;
  let bytes =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
  in
  (* flip one body byte: the checksum must catch it *)
  let flipped = Bytes.copy bytes in
  Bytes.set flipped 12 (Char.chr (Char.code (Bytes.get flipped 12) lxor 0xff));
  let write b =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_bytes oc b)
  in
  write flipped;
  (match M.load path with
  | exception M.Corrupt _ -> ()
  | _ -> Alcotest.fail "flipped byte not detected");
  (* truncation *)
  write (Bytes.sub bytes 0 6);
  (match M.load path with
  | exception M.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation not detected");
  (* a non-manifest file is not mistaken for one *)
  write (Bytes.of_string "not a manifest at all");
  Alcotest.(check bool) "foreign file" false (M.is_manifest_file path)

(* --- observability: per-shard spans and the metrics registry --- *)

module T = Obs.Trace

let shard_spans (root : T.span) =
  List.filter
    (fun (s : T.span) ->
      String.length s.T.name > 6 && String.sub s.T.name 0 6 = "shard:")
    root.T.children

let test_traced_scatter_local () =
  with_built ~shards:3 @@ fun _mpath m ->
  let r = R.open_manifest m in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  let q = Testutil.v "{car}" in
  let plain = (R.query r q).R.records in
  let trace = T.create "query" in
  let o = R.query ~trace r q in
  let root = T.finish trace in
  check_ids "tracing does not change the answer" plain o.R.records;
  let spans = shard_spans root in
  Alcotest.(check int)
    "one span per queried shard (skipped shards get none)"
    o.R.shards_queried (List.length spans);
  (* each local shard span carries the engine's phase spans inside *)
  List.iter
    (fun (s : T.span) ->
      Alcotest.(check bool)
        (s.T.name ^ " has an eval phase")
        true
        (List.exists (fun (c : T.span) -> c.T.name = "eval") s.T.children))
    spans;
  Alcotest.(check (option string))
    "shards_queried attr"
    (Some (string_of_int o.R.shards_queried))
    (List.assoc_opt "shards_queried" root.T.attrs);
  Alcotest.(check (option string))
    "shards_skipped attr"
    (Some (string_of_int o.R.shards_skipped))
    (List.assoc_opt "shards_skipped" root.T.attrs)

let test_traced_scatter_remote () =
  with_built ~shards:3 @@ fun _mpath m ->
  let servers = Array.map serve_shard m.M.shards in
  Fun.protect ~finally:(fun () -> Array.iter Server.Service.stop servers)
  @@ fun () ->
  let rm = remote_manifest m (Array.map Server.Service.port servers) in
  let r = R.open_manifest rm in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  let q = Testutil.v "{car}" in
  let trace = T.create "query" in
  let o = R.query ~trace r q in
  let root = T.finish trace in
  let spans = shard_spans root in
  Alcotest.(check int) "a span per remote shard" 3 (List.length spans);
  Alcotest.(check int) "all queried" 3 o.R.shards_queried;
  List.iter
    (fun (s : T.span) ->
      Alcotest.(check (option string))
        (s.T.name ^ " marked remote") (Some "true")
        (List.assoc_opt "remote" s.T.attrs);
      (* the server-side tree is nested inside, phases and all *)
      match s.T.children with
      | [ server_root ] ->
        Alcotest.(check bool)
          (s.T.name ^ " carries server phases")
          true
          (List.exists
             (fun (c : T.span) -> c.T.name = "eval")
             server_root.T.children)
      | l -> Alcotest.failf "%s: %d server roots" s.T.name (List.length l))
    spans

let test_router_register () =
  with_built ~shards:3 @@ fun _mpath m ->
  let r = R.open_manifest m in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iter (fun q -> ignore (R.query r q)) queries;
  let reg = Obs.Metrics.create () in
  R.register reg r;
  let out = Obs.Metrics.render_text reg in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("registry carries " ^ needle) true (contains needle))
    [
      Printf.sprintf "nscq_router_queries_total %d" (List.length queries);
      "nscq_shard_queries_total{shard=\"0\"}";
      "nscq_shard_queries_total{shard=\"2\"}";
      "nscq_shard_skips_total{shard=\"1\"}";
      "nscq_io_lookups_total{shard=\"0\",source=\"lists\"}";
      "nscq_shard_query_ms_max";
    ]

let () =
  Alcotest.run "shard"
    [
      ( "manifest",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_manifest_corruption;
        ] );
      ( "router",
        [
          Alcotest.test_case "hash placement = oracle (all configs)" `Quick
            (test_local_equivalence M.Hash);
          Alcotest.test_case "round-robin placement = oracle (all configs)"
            `Quick
            (test_local_equivalence M.Round_robin);
          Alcotest.test_case "record_value translates globals" `Quick
            test_record_value_roundtrip;
        ] );
      ( "remote",
        [
          Alcotest.test_case "remote shards = oracle" `Quick
            test_remote_equivalence;
          Alcotest.test_case "dead shard: partial + fail-fast" `Quick
            test_dead_shard;
          Alcotest.test_case "serve --shard-manifest = oracle" `Quick
            test_serve_sharded;
        ] );
      ( "reshard",
        [
          Alcotest.test_case "4 -> 2 (merge) = oracle" `Quick
            (test_reshard_equivalence ~from_shards:4 ~to_shards:2);
          Alcotest.test_case "2 -> 3 (grow) = oracle" `Quick
            (test_reshard_equivalence ~from_shards:2 ~to_shards:3);
        ] );
      ( "observability",
        [
          Alcotest.test_case "local scatter traced" `Quick
            test_traced_scatter_local;
          Alcotest.test_case "remote scatter traced" `Quick
            test_traced_scatter_remote;
          Alcotest.test_case "registry registration" `Quick
            test_router_register;
        ] );
    ]
