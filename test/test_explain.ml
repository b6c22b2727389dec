(* The differential EXPLAIN suite — the acceptance bar for the
   observability work: on plain, live, and sharded stores the profile's
   est-vs-actual phase counts must reconcile exactly with the phase
   deltas an independently traced run of the same query records, and
   the wire form must transport the whole plan tree losslessly. *)

module E = Containment.Engine
module IF = Invfile.Inverted_file
module V = Nested.Value
module X = Obs.Explain
module T = Obs.Trace
module L = Live.Live_store
module M = Shard.Manifest
module P = Shard.Partitioner
module R = Shard.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- shared collection + query set (cf. test_shard) --- *)

let collection =
  let st = Random.State.make [| 11 |] in
  List.map Testutil.v Testutil.licences_strings
  @ List.init 36 (fun _ -> Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st)

let queries =
  List.map Testutil.v
    [ "{UK, {A, motorbike}}"; "{{UK, {A, motorbike}}}"; "{car}"; "{nothere}";
      "{Boston, USA}" ]

let with_plain f =
  Testutil.with_temp_path ".log" @@ fun path ->
  let b = Invfile.Builder.create (Storage.Log_store.create path) in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) collection;
  let inv = Invfile.Builder.finish b in
  Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv)

(* --- the independent side of the differential: what a trace span says
   the phase's measured count was --- *)

let attr name (s : T.span) = List.assoc_opt name s.T.attrs
let int_attr name s = Option.bind (attr name s) int_of_string_opt

let span_actual (s : T.span) =
  match s.T.name with
  | "prefilter" -> int_attr "survivors" s
  | "retrieve" -> Some (List.length s.T.children)
  | "eval" -> int_attr "candidates" s
  | "verify" -> int_attr "kept" s
  | _ -> None

(* The profile's phase list must be exactly the trace's phase spans —
   same names, same order — and where the trace records a count, the
   profile's [actual] must equal it. *)
let reconcile label (profile : X.t) (spans : T.span list) =
  Alcotest.(check (list string))
    (label ^ ": same phases in the same order")
    (List.map (fun (s : T.span) -> s.T.name) spans)
    (List.map (fun (p : X.phase) -> p.X.phase) profile.X.phases);
  List.iter2
    (fun (p : X.phase) s ->
      match span_actual s with
      | Some actual ->
        check_int
          (Printf.sprintf "%s: %s actual = trace delta" label p.X.phase)
          actual p.X.actual
      | None -> ())
    profile.X.phases spans

(* --- plain stores --- *)

let plain_configs =
  [ ("default", E.default);
    ("verified", { E.default with E.verify = true });
    ("top-down", { E.default with E.algorithm = E.Top_down }) ]

let test_plain_differential () =
  with_plain @@ fun inv ->
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun q ->
          let profile = E.explain_profile ~config inv q in
          let trace = T.create "query" in
          let result = E.query ~config ~trace inv q in
          let root = T.finish trace in
          let label = Printf.sprintf "plain/%s %s" cname (V.to_string q) in
          reconcile label profile root.T.children;
          check_int (label ^ ": records = result count")
            (List.length result.E.records)
            profile.X.records)
        queries)
    plain_configs

(* --- joins: the profile's rows are the join trace's phase spans --- *)

let test_join_phases () =
  with_plain @@ fun inv ->
  let profile = Join.Engine.explain inv queries in
  let trace = T.create "join" in
  let result = Join.Engine.join ~trace inv queries in
  let root = T.finish trace in
  Alcotest.(check (list string))
    "join rows = trace phases, in order"
    (List.map (fun (s : T.span) -> s.T.name) root.T.children)
    (List.map (fun (p : X.phase) -> p.X.phase) profile.X.phases);
  check_int "three join phases" 3 (List.length profile.X.phases);
  check_int "records = pairs" (List.length result.Join.Engine.pairs)
    profile.X.records

(* --- live stores: one sub-plan per segment plus the memtable --- *)

let manual = { L.default with L.flush_records = 0; L.max_segments = 0 }

let test_live_differential () =
  let dir = Filename.temp_file "nscq_explain_live_" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
  @@ fun () ->
  let store = L.create ~config:manual dir in
  Fun.protect ~finally:(fun () -> L.close store) @@ fun () ->
  (* two sealed segments plus a non-empty memtable *)
  let a, rest = (List.filteri (fun i _ -> i < 14) collection,
                 List.filteri (fun i _ -> i >= 14) collection) in
  let b, c = (List.filteri (fun i _ -> i < 14) rest,
              List.filteri (fun i _ -> i >= 14) rest) in
  List.iter (fun v -> ignore (L.insert store v)) a;
  ignore (L.flush store);
  List.iter (fun v -> ignore (L.insert store v)) b;
  ignore (L.flush store);
  List.iter (fun v -> ignore (L.insert store v)) c;
  check_int "two sealed segments" 2 (L.segment_count store);
  List.iter
    (fun q ->
      let label = Printf.sprintf "live %s" (V.to_string q) in
      let profile = L.explain store q in
      let trace = T.create "query" in
      let result = L.query ~trace store q in
      let root = T.finish trace in
      check_int (label ^ ": records = result count") (List.length result)
        profile.X.records;
      (* one sub per traced part, in the same part order: sealed
         segments oldest first, then the memtable *)
      Alcotest.(check (list string))
        (label ^ ": one sub-plan per traced part")
        (List.map (fun (s : T.span) -> s.T.name) root.T.children)
        (List.map (fun (s : X.t) -> s.X.target) profile.X.subs);
      (* each part's phases reconcile with its span's children *)
      List.iter
        (fun (sub : X.t) ->
          match
            List.find_opt
              (fun (s : T.span) -> s.T.name = sub.X.target)
              root.T.children
          with
          | Some span ->
            reconcile
              (Printf.sprintf "%s[%s]" label sub.X.target)
              sub span.T.children
          | None ->
            Alcotest.failf "%s: no trace span for %s" label sub.X.target)
        profile.X.subs;
      (* the parts partition the result *)
      check_int (label ^ ": sub records sum to the total")
        profile.X.records
        (List.fold_left (fun n (s : X.t) -> n + s.X.records) 0
           profile.X.subs))
    queries

(* --- sharded stores --- *)

let remove_stores (m : M.t) =
  Array.iter
    (fun (s : M.shard) ->
      match s.M.location with
      | M.Local { path; _ } -> ( try Sys.remove path with Sys_error _ -> ())
      | M.Remote _ -> ())
    m.M.shards

let test_shard_differential () =
  Testutil.with_temp_path ".manifest" @@ fun mpath ->
  let m = P.build ~policy:M.Hash ~shards:3 ~manifest_path:mpath collection in
  Fun.protect ~finally:(fun () -> remove_stores m) @@ fun () ->
  let r = R.open_manifest m in
  Fun.protect ~finally:(fun () -> R.close r) @@ fun () ->
  List.iter
    (fun q ->
      let label = Printf.sprintf "shard %s" (V.to_string q) in
      let profile = R.explain r q in
      let o = R.query r q in
      check_int (label ^ ": records = routed result count")
        (List.length o.R.records) profile.X.records;
      check_int (label ^ ": one sub per shard") 3
        (List.length profile.X.subs);
      check_int (label ^ ": sub records sum to the total") profile.X.records
        (List.fold_left (fun n (s : X.t) -> n + s.X.records) 0
           profile.X.subs);
      (* answered/pruned accounting matches the sub-plans *)
      let pruned_subs =
        List.length
          (List.filter
             (fun (s : X.t) -> List.mem_assoc "pruned" s.X.config)
             profile.X.subs)
      in
      let kv k = List.assoc_opt k profile.X.config in
      Alcotest.(check (option string))
        (label ^ ": pruned count")
        (Some (string_of_int pruned_subs))
        (kv "pruned");
      Alcotest.(check (option string))
        (label ^ ": answered count")
        (Some (string_of_int (3 - pruned_subs)))
        (kv "answered");
      (* an answered shard's verify phase kept exactly its records *)
      List.iter
        (fun (s : X.t) ->
          match
            List.find_opt (fun (p : X.phase) -> p.X.phase = "verify")
              s.X.phases
          with
          | Some p ->
            check_int
              (Printf.sprintf "%s[%s]: verify kept = records" label
                 s.X.target)
              s.X.records p.X.actual
          | None -> ())
        profile.X.subs)
    queries

(* --- the wire form --- *)

(* µs-exact durations survive the wire's microsecond granularity, so
   the round-trip is full structural equality *)
let synthetic =
  X.make ~target:"router" ~query:"{a, {b=c}, \"t\tab\"}"
    ~config:[ ("shards", "2"); ("odd key", "v%al=ue\twith\ntabs") ]
    ~records:7
    ~subs:
      [
        X.make ~target:"shard:0" ~query:"{a}"
          ~atoms:
            [
              { X.atom = "a b"; list_len = 3; bytes = 17; codec = "blocked";
                blocks = 2 };
              { X.atom = "="; list_len = 0; bytes = 0; codec = "-"; blocks = 0 };
            ]
          ~phases:
            [
              { X.phase = "eval"; est = 3; actual = 2; ms = 1.25;
                notes = [ ("algorithm", "bottom-up") ] };
              { X.phase = "verify"; est = 2; actual = 2; ms = 0.5; notes = [] };
            ]
          ~records:2 ();
        X.make ~target:"shard:1" ~query:"{a}"
          ~config:[ ("pruned", "atom-relevance") ]
          ~records:0
          ~subs:[ X.make ~target:"segment:x" ~query:"{a}" ~records:0 () ] ();
      ]
    ()

let test_wire_round_trip () =
  (match X.of_wire (X.to_wire synthetic) with
  | Some t -> check_bool "nested tree survives byte-identically" true
                (t = synthetic)
  | None -> Alcotest.fail "wire form did not parse back");
  (* a real profile round-trips too, modulo the wire's µs duration
     granularity — normalize ms exactly as the wire does *)
  with_plain @@ fun inv ->
  let profile = E.explain_profile inv (List.hd queries) in
  let rec normalize (t : X.t) =
    {
      t with
      X.phases =
        List.map
          (fun (p : X.phase) ->
            { p with
              X.ms = float_of_string (Printf.sprintf "%.0f" (p.X.ms *. 1e3))
                     /. 1e3 })
          t.X.phases;
      subs = List.map normalize t.X.subs;
    }
  in
  match X.of_wire (X.to_wire profile) with
  | Some t ->
    check_bool "engine profile survives" true (t = normalize profile)
  | None -> Alcotest.fail "engine profile did not parse back"

let test_wire_rejects_malformed () =
  List.iter
    (fun payload ->
      match X.of_wire payload with
      | None -> ()
      | Some _ -> Alcotest.failf "payload %S should be rejected" payload)
    [
      "";
      "garbage";
      "explain 1\n";  (* no root node *)
      "explain 1\nQ\t0\tfoo\t0\tbar\n";  (* unknown line tag *)
      "explain 1\nN\t2\tstore\t0\t{a}\n";  (* root at depth 2 *)
      "explain 1\nN\t0\tstore\t0\t{a}\nN\t2\tleaf\t0\t{a}\n";  (* depth jump *)
      "explain 1\nN\t0\tstore\tmany\t{a}\n";  (* non-numeric records *)
      "explain 1\nN\t0\tstore\t0\t{a}\nP\t0\teval\tx\t2\t10\t\n";
      (* two roots *)
      "explain 1\nN\t0\ta\t0\t{a}\nN\t0\tb\t0\t{a}\n";
    ];
  (* rendering never fails on what of_wire accepts *)
  match X.of_wire (X.to_wire synthetic) with
  | Some t ->
    check_bool "render nonempty" true (String.length (X.render t) > 0);
    check_bool "json nonempty" true (String.length (X.to_json t) > 0)
  | None -> Alcotest.fail "round-trip lost"

let () =
  Alcotest.run "explain"
    [
      ( "differential",
        [
          Alcotest.test_case "plain store" `Quick test_plain_differential;
          Alcotest.test_case "join" `Quick test_join_phases;
          Alcotest.test_case "live store" `Quick test_live_differential;
          Alcotest.test_case "sharded store" `Quick test_shard_differential;
        ] );
      ( "wire",
        [
          Alcotest.test_case "round-trip" `Quick test_wire_round_trip;
          Alcotest.test_case "rejects malformed" `Quick
            test_wire_rejects_malformed;
        ] );
    ]
