(* The set-containment join engine against its contract: for every
   configuration, [Join.Engine.join] returns exactly the pairs of the
   naive per-query loop — through the prefix tree's fast path, through
   forced LIMIT+ cuts, through the fallback path, over the paired-
   collection generator's guaranteed polarities, and sharded through the
   router (local, remote, and degraded with a dead shard). *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module Sem = Containment.Semantics
module V = Nested.Value
module J = Join.Engine
module M = Shard.Manifest
module P = Shard.Partitioner
module R = Shard.Router

let check_pairs = Alcotest.(check (list (pair int int)))

let with_collection values f =
  let inv = Containment.Collection.of_values values in
  Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv)

(* drop outer values the engines refuse outright (atoms) *)
let as_outer vs = List.filter V.is_set vs

let differential ?(config = J.default) values outers =
  with_collection values @@ fun inv ->
  let got = (J.join ~config inv outers).J.pairs in
  let want = J.naive ~config:config.J.engine inv outers in
  got = want

(* --- qcheck differentials --- *)

let arbitrary_join_case =
  QCheck.make
    ~print:(fun (vs, qs) ->
      Printf.sprintf "inner:\n%s\nouter:\n%s"
        (String.concat "\n" (List.map V.to_string vs))
        (String.concat "\n" (List.map V.to_string qs)))
    (fun st ->
      let records = QCheck.Gen.int_range 0 14 st in
      let inner =
        List.init records (fun _ ->
            Testutil.gen_set ~max_depth:3 ~max_width:4 st)
      in
      let n_outer = QCheck.Gen.int_range 0 10 st in
      let outer =
        List.init n_outer (fun _ ->
            match QCheck.Gen.int_bound 3 st with
            | 0 when inner <> [] ->
              (* a subquery of a record: guaranteed dense positives *)
              let r = List.nth inner (QCheck.Gen.int_bound (records - 1) st) in
              Testutil.shrink_to_subquery st r
            | 1 ->
              (* single-atom and tiny sets stress depth-1 handling *)
              V.set [ V.atom (Testutil.gen_atom_string st) ]
            | _ -> Testutil.gen_set ~max_depth:3 ~max_width:4 st)
        |> as_outer
      in
      (inner, outer))

let prop_differential =
  Testutil.qcheck_case ~count:150 ~name:"join = naive loop (default config)"
    arbitrary_join_case
    (fun (inner, outer) -> differential inner outer)

(* Forced-cut configurations: every cut point must stay exact because
   leaves finish with oracle verification. *)
let cut_configs =
  [
    ("depth-1 cap", { J.default with J.max_depth = 1 });
    ("always cut", { J.default with J.cut_candidates = max_int });
    ("fanout cut", { J.default with J.cut_fanout = 1000 });
    ("no cuts", { J.default with J.max_depth = 0; J.cut_candidates = 0 });
  ]

let prop_cut_configs =
  List.map
    (fun (label, config) ->
      Testutil.qcheck_case ~count:75
        ~name:(Printf.sprintf "join = naive under %s" label)
        arbitrary_join_case
        (fun (inner, outer) -> differential ~config inner outer))
    cut_configs

(* Every embedding under the containment join: flat Hom/Iso/Homeo
   queries are answered by the tree, nested ones and every Homeo_full
   query by the engine. *)
let embeddings = [ Sem.Hom; Sem.Iso; Sem.Homeo; Sem.Homeo_full ]

let embedding_config embedding =
  { J.default with J.engine = { E.default with E.embedding } }

let prop_embeddings =
  Testutil.qcheck_case ~count:75 ~name:"join = naive under each embedding"
    arbitrary_join_case
    (fun (inner, outer) ->
      List.for_all
        (fun e -> differential ~config:(embedding_config e) inner outer)
        embeddings)

(* Non-fast-path semantics route through the fallback and must still
   match the naive loop under the same engine config. *)
let fallback_configs =
  [
    { E.default with E.join = Sem.Equality };
    { E.default with E.join = Sem.Superset };
    { E.default with E.scope = E.Anywhere };
  ]

let prop_fallback =
  Testutil.qcheck_case ~count:50 ~name:"join = naive on fallback configs"
    arbitrary_join_case
    (fun (inner, outer) ->
      List.for_all
        (fun engine ->
          match differential ~config:{ J.default with J.engine } inner outer with
          | ok -> ok
          | exception Sem.Unsupported _ -> true)
        fallback_configs)

(* --- every list source feeds the join ---

   Common atoms pass one block (128 postings), so their lists are stored
   blocked ('C'); the rare ones stay varint ('V'); a static cache holds
   the most frequent few decoded. The join reads each kind through the
   same cursors. *)

let long_inner =
  let st = Random.State.make [| 5 |] in
  List.init 300 (fun i ->
      let s = Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st in
      V.set (V.atom (Printf.sprintf "r%d" (i mod 40)) :: V.elements s))

let long_outer =
  let st = Random.State.make [| 13 |] in
  let records = Array.of_list long_inner in
  List.init 60 (fun i ->
      match i mod 4 with
      | 0 | 1 -> Testutil.shrink_to_subquery st records.(Random.State.int st 300)
      | 2 -> Testutil.gen_leafy_set ~max_depth:2 ~max_width:3 st
      | _ -> V.set [ V.atom "a"; V.atom (Printf.sprintf "r%d" (i mod 45)) ])
  |> as_outer

let with_long_store f =
  Testutil.with_temp_path ".tch" @@ fun path ->
  IF.close
    (Containment.Collection.of_values ~backend:(Containment.Collection.Hash path)
       long_inner);
  f path

let payload_tags inv =
  let tags = ref [] in
  (IF.store inv).Storage.Kv.iter (fun k v ->
      if k.[0] = 'a' && not (List.exists (Char.equal v.[0]) !tags) then
        tags := v.[0] :: !tags);
  List.sort Char.compare !tags

let test_long_lists () =
  with_long_store @@ fun path ->
  List.iter
    (fun budget ->
      let inv = IF.open_store (Storage.Hash_store.open_existing path) in
      Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
      Alcotest.(check (list char)) "blocked and varint lists" [ 'C'; 'V' ]
        (payload_tags inv);
      if budget > 0 then Containment.Collection.with_static_cache inv ~budget;
      List.iter
        (fun e ->
          List.iter
            (fun (label, cut) ->
              let config = { (embedding_config e) with J.cut_candidates = cut } in
              check_pairs
                (Format.asprintf "%s, cache %d, %a" label budget
                   Sem.pp_embedding e)
                (J.naive ~config:config.J.engine inv long_outer)
                (J.join ~config inv long_outer).J.pairs)
            [ ("default cuts", J.default.J.cut_candidates);
              ("always cut", max_int); ("no cuts", 0) ])
        embeddings)
    [ 0; 3 ]

(* --- I/O accounting ---

   The join resolves each distinct atom once: at most one store read per
   atom key, none for an atom the static cache holds (so no existence
   probe either), and every lookup it counts is a hit or a miss. *)

let test_io_accounting () =
  with_long_store @@ fun path ->
  List.iter
    (fun budget ->
      let kv = Storage.Hash_store.open_existing path in
      let gets : (string, int) Hashtbl.t = Hashtbl.create 64 in
      let counting =
        {
          kv with
          Storage.Kv.get =
            (fun k ->
              Hashtbl.replace gets k
                (1 + Option.value ~default:0 (Hashtbl.find_opt gets k));
              kv.Storage.Kv.get k);
        }
      in
      let inv = IF.open_store counting in
      Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
      if budget > 0 then Containment.Collection.with_static_cache inv ~budget;
      let cached =
        match IF.cache inv with
        | Some c -> Invfile.Cache.cached_atoms c
        | None -> []
      in
      Alcotest.(check int) "cache holds its budget" budget (List.length cached);
      Hashtbl.reset gets;
      let r = J.join inv long_outer in
      let reads = Hashtbl.copy gets in
      let ctx = Printf.sprintf "cache %d" budget in
      check_pairs ctx (J.naive inv long_outer) r.J.pairs;
      Alcotest.(check bool) (ctx ^ ": the join runs the engine") true
        (r.J.stats.J.fallback > 0);
      Hashtbl.iter
        (fun k n ->
          if k.[0] = 'a' && n > 1 then
            Alcotest.failf "%s: atom key %S read %d times" ctx k n)
        reads;
      List.iter
        (fun a ->
          if Hashtbl.mem reads (IF.atom_key a) then
            Alcotest.failf "%s: cached atom %S read from the store" ctx a)
        cached;
      let s = IF.lookup_stats inv in
      Alcotest.(check int) (ctx ^ ": hits + misses = lookups")
        (Storage.Io_stats.lookups s)
        (Storage.Io_stats.hits s + Storage.Io_stats.misses s))
    [ 0; 3 ]

(* --- deterministic edges --- *)

let licences = List.map Testutil.v Testutil.licences_strings

let test_edges () =
  (* empty outer collection *)
  with_collection licences (fun inv ->
      let r = J.join inv [] in
      check_pairs "empty outer" [] r.J.pairs;
      Alcotest.(check int) "no queries" 0 r.J.stats.J.outer);
  (* empty inner collection *)
  with_collection [] (fun inv ->
      let r = J.join inv [ Testutil.v "{a}"; Testutil.v "{a, {b}}" ] in
      check_pairs "empty inner" [] r.J.pairs);
  (* duplicate outer sets share one prefix path but answer separately *)
  with_collection licences (fun inv ->
      let q = Testutil.v "{UK, {A, motorbike}}" in
      let r = J.join inv [ q; q; q ] in
      let per_q = (E.query inv q).E.records in
      check_pairs "duplicates"
        (List.concat_map (fun qi -> List.map (fun id -> (qi, id)) per_q)
           [ 0; 1; 2 ])
        r.J.pairs);
  (* an atom outer value is refused like the engine refuses it *)
  with_collection licences (fun inv ->
      Alcotest.check_raises "atom outer"
        (Invalid_argument "Query.of_value: query must be a set")
        (fun () -> ignore (J.join inv [ V.atom "car" ])));
  (* the empty set query matches every record (atomless → fallback) *)
  with_collection licences (fun inv ->
      let r = J.join inv [ V.empty ] in
      check_pairs "empty set query"
        (List.mapi (fun i _ -> (0, i)) licences)
        r.J.pairs;
      Alcotest.(check int) "fallback took it" 1 r.J.stats.J.fallback)

let test_deep_and_skewed () =
  (* deep nesting: chains stress root-lifting across node levels *)
  let rec chain n = if n = 0 then V.atom "z" else V.set [ V.atom "a"; chain (n - 1) ] in
  let inner = List.init 8 (fun i -> chain (i + 1)) in
  let outer = [ V.set [ V.atom "a" ]; chain 3; chain 8; V.set [ chain 2 ] ] in
  Alcotest.(check bool) "deep chains" true (differential inner outer);
  (* skewed sizes: one huge record among tiny ones, one huge query *)
  let big = V.set (List.init 60 (fun i -> V.atom (Printf.sprintf "x%d" i))) in
  let inner = big :: List.init 10 (fun i -> V.set [ V.atom (Printf.sprintf "x%d" i) ]) in
  let outer =
    [ V.set (List.init 30 (fun i -> V.atom (Printf.sprintf "x%d" (2 * i))));
      V.set [ V.atom "x3" ] ]
  in
  Alcotest.(check bool) "skewed sizes" true (differential inner outer)

(* --- the paired-collection generator's guarantees --- *)

let test_paired_generator () =
  let w =
    Datagen.Paired.make ~seed:7 ~label_dist:(Datagen.Synthetic.Zipfian 0.7)
      ~selectivity:0.5 ~inner:40 ~outer:30 ()
  in
  Alcotest.(check int) "inner count" 40 (List.length w.Datagen.Paired.inner);
  Alcotest.(check int) "outer count" 30 (List.length w.Datagen.Paired.outer);
  with_collection w.Datagen.Paired.inner @@ fun inv ->
  let outers = Datagen.Workload.values w.Datagen.Paired.outer in
  let r = J.join inv outers in
  let groups = J.group ~outer:(List.length outers) r.J.pairs in
  List.iteri
    (fun qi (q : Datagen.Workload.query) ->
      let ids = List.nth groups qi in
      if q.Datagen.Workload.positive then begin
        Alcotest.(check bool)
          (Printf.sprintf "positive %d has matches" qi)
          true (ids <> []);
        Alcotest.(check bool)
          (Printf.sprintf "positive %d finds its source" qi)
          true
          (List.mem q.Datagen.Workload.source_record ids)
      end
      else
        Alcotest.(check (list int))
          (Printf.sprintf "negative %d is empty" qi)
          [] ids)
    w.Datagen.Paired.outer;
  (* and the result still matches the naive loop *)
  Alcotest.(check bool) "paired differential" true
    (r.J.pairs = J.naive inv outers);
  (* determinism across runs *)
  let w' =
    Datagen.Paired.make ~seed:7 ~label_dist:(Datagen.Synthetic.Zipfian 0.7)
      ~selectivity:0.5 ~inner:40 ~outer:30 ()
  in
  Alcotest.(check bool) "generator is deterministic" true
    (List.equal V.equal w.Datagen.Paired.inner w'.Datagen.Paired.inner
    && List.equal V.equal
         (Datagen.Workload.values w.Datagen.Paired.outer)
         (Datagen.Workload.values w'.Datagen.Paired.outer))

(* --- the stats tell the sharing story --- *)

let test_stats_sharing () =
  (* queries sharing a rare atom share its (rarest-first) prefix node:
     the shared counter must reflect the k-1 saved lookups/intersections *)
  let commons = List.init 6 (fun j -> V.atom (Printf.sprintf "c%d" j)) in
  let inner =
    List.init 12 (fun i ->
        V.set (if i < 6 then V.atom "rare" :: commons else commons))
  in
  let outer =
    List.init 6 (fun j ->
        V.set [ V.atom "rare"; V.atom (Printf.sprintf "c%d" j) ])
  in
  with_collection inner @@ fun inv ->
  let r =
    J.join ~config:{ J.default with J.cut_candidates = 0 } inv outer
  in
  let s = r.J.stats in
  Alcotest.(check int) "all fast path" 6 s.J.fast_path;
  (* "rare" sorts first in all six queries: one node serving six queries,
     so five of the six lookups are shared *)
  Alcotest.(check bool) "prefix sharing happened" true
    (s.J.intersections_shared >= 5);
  Alcotest.(check int) "tree shares the rare prefix" 7 s.J.tree_nodes;
  check_pairs "sharing result"
    (List.concat_map (fun j -> List.init 6 (fun i -> (j, i))) [ 0; 1; 2; 3; 4; 5 ])
    r.J.pairs

(* --- flight-recorder phase edges --- *)

(* Under the recorder, a join's three phases leave matched begin/end
   edges with query id 0, in order; the atomless outer value takes the
   engine fallback, whose own per-query edges carry non-zero ids. The
   recorder changes no answer. *)
let test_recorder_edges () =
  let module R = Obs.Recorder in
  let outers =
    List.map Testutil.v [ "{UK, {A, motorbike}}"; "{car}"; "{nothere}"; "{}" ]
  in
  with_collection licences @@ fun inv ->
  let want = (J.join inv outers).J.pairs in
  R.reset ();
  R.enable ();
  let got =
    Fun.protect ~finally:R.disable (fun () -> (J.join inv outers).J.pairs)
  in
  check_pairs "pairs unchanged under the recorder" want got;
  let edges =
    List.filter_map
      (fun (e : R.event) ->
        match e.R.kind with
        | (R.Phase_begin | R.Phase_end) when e.R.a32 = 0 ->
          Some (R.kind_name e.R.kind ^ " " ^ Option.value ~default:"?" (R.name_of e.R.a8))
        | _ -> None)
      (R.events ())
  in
  Alcotest.(check (list string))
    "matched join phase edges"
    [ "phase.begin build-tree"; "phase.end build-tree";
      "phase.begin intersect"; "phase.end intersect";
      "phase.begin verify"; "phase.end verify" ]
    edges

(* --- sharded joins --- *)

let collection =
  let st = Random.State.make [| 11 |] in
  licences
  @ List.init 30 (fun _ -> Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st)

let outer_queries =
  let st = Random.State.make [| 23 |] in
  List.map Testutil.v [ "{UK, {A, motorbike}}"; "{car}"; "{nothere}" ]
  @ (List.filteri (fun i _ -> i mod 4 = 0) collection
    |> List.map (fun r ->
           let q = Testutil.shrink_to_subquery st r in
           if V.is_set q then q else r)
    |> as_outer)

let with_built ~shards f =
  Testutil.with_temp_path ".manifest" @@ fun mpath ->
  let m = P.build ~policy:M.Hash ~shards ~manifest_path:mpath collection in
  let remove () =
    Array.iter
      (fun (s : M.shard) ->
        match s.M.location with
        | M.Local { path; _ } -> ( try Sys.remove path with Sys_error _ -> ())
        | M.Remote _ -> ())
      m.M.shards
  in
  Fun.protect ~finally:remove (fun () -> f m)

let single_store_pairs () =
  with_collection collection (fun inv -> (J.join inv outer_queries).J.pairs)

let test_sharded_local () =
  let want = single_store_pairs () in
  with_built ~shards:3 @@ fun m ->
  let r = R.open_manifest m in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  let o = R.join r outer_queries in
  Alcotest.(check (list (pair int string))) "no warnings" [] o.R.join_warnings;
  check_pairs "sharded = single store" want o.R.pairs;
  (* empty outer short-circuits *)
  let o = R.join r [] in
  check_pairs "empty outer over shards" [] o.R.pairs;
  Alcotest.(check int) "nothing queried" 0 o.R.join_shards_queried

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

let test_sharded_remote () =
  let want = single_store_pairs () in
  with_built ~shards:3 @@ fun m ->
  let servers = Array.map serve_shard m.M.shards in
  Fun.protect ~finally:(fun () -> Array.iter Server.Service.stop servers)
  @@ fun () ->
  (* one remote shard among locals: mixed fan-out *)
  let mixed =
    M.make ~policy:m.M.policy ~total_records:m.M.total_records
      (List.mapi
         (fun i (s : M.shard) ->
           if i = 1 then
             { s with
               M.location =
                 M.Remote
                   { host = "127.0.0.1"; port = Server.Service.port servers.(1) };
             }
           else s)
         (Array.to_list m.M.shards))
  in
  let r = R.open_manifest mixed in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  let o = R.join r outer_queries in
  Alcotest.(check (list (pair int string))) "no warnings" [] o.R.join_warnings;
  check_pairs "mixed local/remote = single store" want o.R.pairs;
  (* all-remote *)
  let rm = remote_manifest m (Array.map Server.Service.port servers) in
  let rr = R.open_manifest rm in
  Fun.protect ~finally:(fun () -> R.close rr) @@ fun () ->
  let o = R.join rr outer_queries in
  check_pairs "all-remote = single store" want o.R.pairs

let test_sharded_dead_partial () =
  let want = single_store_pairs () in
  with_built ~shards:3 @@ fun m ->
  (* find a free port, then close it: shard 2 is dead *)
  let dead_port =
    let tmp = serve_shard m.M.shards.(0) in
    let p = Server.Service.port tmp in
    Server.Service.stop tmp;
    p
  in
  let s0 = serve_shard m.M.shards.(0) and s1 = serve_shard m.M.shards.(1) in
  Fun.protect
    ~finally:(fun () ->
      Server.Service.stop s0;
      Server.Service.stop s1)
  @@ fun () ->
  let rm =
    remote_manifest m
      [| Server.Service.port s0; Server.Service.port s1; dead_port |]
  in
  (* Fail_fast: the dead shard raises *)
  let rf = R.open_manifest rm in
  (match R.join rf outer_queries with
  | exception R.Shard_failed (2, _) -> ()
  | exception R.Shard_failed (i, _) -> Alcotest.failf "wrong shard failed: %d" i
  | _ -> Alcotest.fail "dead shard did not fail the join");
  R.close rf;
  (* Partial: the surviving shards' pairs, one warning for shard 2 *)
  let rp =
    R.open_manifest ~config:{ R.default_config with R.fail_mode = R.Partial } rm
  in
  Fun.protect ~finally:(fun () -> R.close rp) @@ fun () ->
  let o = R.join rp outer_queries in
  (match o.R.join_warnings with
  | [ (2, _) ] -> ()
  | w -> Alcotest.failf "expected one warning for shard 2, got %d" (List.length w));
  let dead_ids =
    Array.to_list m.M.shards.(2).M.ids |> List.sort_uniq Int.compare
  in
  let want_partial =
    List.filter (fun (_, id) -> not (List.mem id dead_ids)) want
  in
  check_pairs "partial = single store minus dead shard" want_partial o.R.pairs

(* --- the wire path end to end --- *)

let test_client_join () =
  let want = single_store_pairs () in
  Testutil.with_temp_path ".log" @@ fun path ->
  let b = Invfile.Builder.create (Storage.Log_store.create path) in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) collection;
  IF.close (Invfile.Builder.finish b);
  let srv =
    Server.Service.start serve_cfg ~open_handle:(fun () ->
        IF.open_store (Storage.Log_store.open_existing path))
  in
  Fun.protect ~finally:(fun () -> Server.Service.stop srv) @@ fun () ->
  let c = Server.Client.connect ~port:(Server.Service.port srv) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let text = String.concat "\n" (List.map V.to_string outer_queries) in
  (match Server.Client.join c text with
  | Ok payload -> (
    match Server.Wire.split_join payload with
    | Ok groups ->
      check_pairs "wire join = single store" want
        (List.concat
           (List.mapi (fun qi ids -> List.map (fun id -> (qi, id)) ids) groups))
    | Error m -> Alcotest.failf "malformed join payload: %s" m)
  | Error (_, m) -> Alcotest.failf "server refused join: %s" m);
  (* malformed outer collections are Bad_request, not dropped conns *)
  match Server.Client.join c "{a}\nnot a literal" with
  | Error (Server.Wire.Bad_request, _) -> ()
  | Ok _ -> Alcotest.fail "malformed outer accepted"
  | Error (c', m) ->
    Alcotest.failf "wrong refusal: %a %s" Server.Wire.pp_error_code c' m

let () =
  Alcotest.run "join"
    [
      ( "differential",
        prop_differential :: prop_embeddings :: prop_fallback
        :: prop_cut_configs );
      ( "list sources",
        [
          Alcotest.test_case "decoded, varint and blocked lists" `Quick
            test_long_lists;
          Alcotest.test_case "one read per atom" `Quick test_io_accounting;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty/duplicate/atom edges" `Quick test_edges;
          Alcotest.test_case "deep chains and skewed sizes" `Quick
            test_deep_and_skewed;
          Alcotest.test_case "stats reflect sharing" `Quick test_stats_sharing;
          Alcotest.test_case "recorder phase edges" `Quick test_recorder_edges;
        ] );
      ( "paired datagen",
        [ Alcotest.test_case "polarity guarantees" `Quick test_paired_generator ] );
      ( "sharded",
        [
          Alcotest.test_case "local shards = single store" `Quick
            test_sharded_local;
          Alcotest.test_case "remote shards = single store" `Quick
            test_sharded_remote;
          Alcotest.test_case "dead shard: fail-fast and partial" `Quick
            test_sharded_dead_partial;
          Alcotest.test_case "client join over the wire" `Quick test_client_join;
        ] );
    ]
