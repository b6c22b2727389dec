(* End-to-end engine tests: backends, scopes, verification, caching,
   workload statistics, and persistence across reopen. *)

module E = Containment.Engine
module S = Containment.Semantics
module IF = Invfile.Inverted_file

let check_records = Alcotest.(check (list int))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let q_uk = "{{UK, {A, motorbike}}}"

(* --- backends produce identical results --- *)

let with_backend backend f =
  match backend with
  | `Mem -> f (Containment.Collection.of_strings Testutil.licences_strings)
  | `Hash ->
    Testutil.with_temp_path ".tch" (fun path ->
        let inv =
          Containment.Collection.of_strings
            ~backend:(Containment.Collection.Hash path) Testutil.licences_strings
        in
        Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv))
  | `Btree ->
    Testutil.with_temp_path ".tcb" (fun path ->
        let inv =
          Containment.Collection.of_strings
            ~backend:(Containment.Collection.Btree path) Testutil.licences_strings
        in
        Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv))

let test_backends_agree () =
  let expected = ref None in
  List.iter
    (fun backend ->
      with_backend backend (fun inv ->
          let r = (E.query inv (Testutil.v q_uk)).E.records in
          match !expected with
          | None -> expected := Some r
          | Some e -> check_records "backend agreement" e r))
    [ `Mem; `Hash; `Btree ]

let test_hash_backend_persists () =
  Testutil.with_temp_path ".tch" (fun path ->
      let inv =
        Containment.Collection.of_strings
          ~backend:(Containment.Collection.Hash path) Testutil.licences_strings
      in
      let before = (E.query inv (Testutil.v q_uk)).E.records in
      IF.close inv;
      let inv2 = IF.open_store (Storage.Hash_store.open_existing path) in
      Fun.protect
        ~finally:(fun () -> IF.close inv2)
        (fun () ->
          let after = (E.query inv2 (Testutil.v q_uk)).E.records in
          check_records "reopened results" before after;
          check_int "records preserved" 4 (IF.record_count inv2)))

(* --- caching --- *)

let test_static_cache_transparent () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v q_uk in
      let cold = (E.query inv q).E.records in
      Containment.Collection.with_static_cache inv ~budget:250;
      let warm = (E.query inv q).E.records in
      check_records "same results" cold warm;
      check_bool "cache hits happened" true
        (Storage.Io_stats.hits (IF.lookup_stats inv) > 0))

let test_cache_reduces_io () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v q_uk in
      let io () = Storage.Io_stats.reads (IF.store inv).Storage.Kv.stats in
      (* warm-up parse etc. *)
      ignore (E.query inv q);
      let r0 = io () in
      ignore (E.query inv q);
      let uncached_reads = io () - r0 in
      Containment.Collection.with_static_cache inv ~budget:250;
      let r1 = io () in
      ignore (E.query inv q);
      let cached_reads = io () - r1 in
      check_bool
        (Printf.sprintf "fewer store reads with cache (%d < %d)" cached_reads
           uncached_reads)
        true
        (cached_reads < uncached_reads))

let test_lru_cache_transparent () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v q_uk in
      let cold = (E.query inv q).E.records in
      IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Lru ~capacity:2);
      let once = (E.query inv q).E.records in
      let twice = (E.query inv q).E.records in
      check_records "lru same results" cold once;
      check_records "lru stable" once twice)

(* --- verification option --- *)

let test_verify_noop_on_sound_results () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let q = Testutil.v q_uk in
  let plain = (E.query inv q).E.records in
  let verified = (E.query ~config:{ E.default with E.verify = true } inv q).E.records in
  check_records "verify keeps sound results" plain verified

let test_verify_fixes_paper_td () =
  (* the published top-down variant over-approximates; verify repairs it *)
  let inv = Testutil.mem_collection [ "{x, {a, {b}}, {a, {c}}}" ] in
  let q = Testutil.v "{x, {a, {b}, {c}}}" in
  let config = { E.default with E.algorithm = E.Top_down_paper } in
  check_records "unverified over-approximates" [ 0 ] (E.query ~config inv q).E.records;
  check_records "verified exact" []
    (E.query ~config:{ config with E.verify = true } inv q).E.records

(* --- workload statistics --- *)

let test_run_workload_counts () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let queries = [ Testutil.v q_uk; Testutil.v "{Mars}"; Testutil.v "{Paris}" ] in
  let stats = E.run_workload inv queries in
  check_int "queries" 3 stats.E.queries;
  check_int "positives: q_uk (3 records) and Paris" 2 stats.E.positives;
  check_int "results total 3+0+1" 4 stats.E.results_total;
  check_bool "elapsed sane" true (stats.E.elapsed_s >= 0.)

let test_run_workload_cache_counters () =
  with_backend `Hash (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:250;
      let stats = E.run_workload inv [ Testutil.v q_uk; Testutil.v q_uk ] in
      check_bool "hits counted" true (stats.E.cache_hits > 0))

(* --- result materialization --- *)

let test_record_values () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let r = E.query inv (Testutil.v "{Boston}") in
  match E.record_values inv r with
  | [ v ] ->
    Alcotest.check Testutil.value_testable "Tim's record"
      (Testutil.v (List.nth Testutil.licences_strings 1))
      v
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

(* --- naive scan via engine --- *)

let test_naive_scan_matches_indexed () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  List.iter
    (fun qs ->
      let q = Testutil.v qs in
      check_records ("naive = indexed for " ^ qs)
        (E.query inv q).E.records
        (E.query ~config:{ E.default with E.algorithm = E.Naive_scan } inv q).E.records)
    [ q_uk; "{Mars}"; "{USA, {UK, {A, motorbike}}}"; "{{FR, {B}}}" ]

let test_matching_records_api () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let q = Containment.Query.of_value (Testutil.v "{USA}") in
  Alcotest.(check (list int)) "matching_records" [ 1; 3 ]
    (Containment.Naive.matching_records inv q)

(* --- queries drawn from a bigger synthetic collection across configs --- *)

let test_cross_config_consistency_synthetic () =
  let values =
    Datagen.Synthetic.values
      (Datagen.Synthetic.make ~seed:21
         ~params:(Datagen.Synthetic.params_of_shape Datagen.Synthetic.Wide)
         (Datagen.Synthetic.Zipfian 0.7))
      150
  in
  let inv = Containment.Collection.of_values values in
  let queries = Datagen.Workload.benchmark_queries ~seed:3 ~count:20 inv in
  let fi = Containment.Filter_index.build inv in
  List.iter
    (fun (wq : Datagen.Workload.query) ->
      let q = wq.Datagen.Workload.value in
      let base = (E.query inv q).E.records in
      List.iter
        (fun config ->
          check_records "config-independent results" base (E.query ~config inv q).E.records)
        [
          { E.default with E.algorithm = E.Top_down };
          { E.default with E.algorithm = E.Naive_scan };
          { E.default with E.verify = true };
          { E.default with E.filter_index = Some fi };
        ])
    queries

(* --- tracing --- *)

module T = Obs.Trace

let span_names (s : T.span) = List.map (fun (c : T.span) -> c.T.name) s.T.children
let attr name (s : T.span) = List.assoc_opt name s.T.attrs
let int_attr name s = Option.bind (attr name s) int_of_string_opt

(* The acceptance bar for the trace subsystem: the root span's recorded
   I/O deltas must reconcile exactly with the store's own Io_stats
   counters around the query — the trace is the same truth, sliced per
   query. *)
let test_trace_reconciles_io_stats () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v q_uk in
      let snap () =
        let lk = IF.lookup_stats inv
        and st = (IF.store inv).Storage.Kv.stats in
        ( Storage.Io_stats.lookups lk,
          Storage.Io_stats.hits lk,
          Storage.Io_stats.misses lk,
          Storage.Io_stats.reads st,
          Storage.Io_stats.bytes_read st )
      in
      let l0, h0, m0, r0, b0 = snap () in
      let trace = T.create "query" in
      let result = E.query ~trace inv q in
      let l1, h1, m1, r1, b1 = snap () in
      let root = T.finish trace in
      check_int "lookups delta" (l1 - l0) (Option.get (int_attr "lookups" root));
      check_int "hits delta" (h1 - h0) (Option.get (int_attr "hits" root));
      check_int "misses delta" (m1 - m0) (Option.get (int_attr "misses" root));
      (match int_attr "reads" root with
      | Some reads -> check_int "reads delta" (r1 - r0) reads
      | None -> check_int "no reads recorded" 0 (r1 - r0));
      (match int_attr "bytes_read" root with
      | Some bytes -> check_int "bytes delta" (b1 - b0) bytes
      | None -> check_int "no bytes recorded" 0 (b1 - b0));
      check_int "result count attr" (List.length result.E.records)
        (Option.get (int_attr "records" root));
      (* the phase spans are present, in evaluation order *)
      Alcotest.(check (list string))
        "phases" [ "retrieve"; "eval"; "verify" ] (span_names root);
      (* per-atom retrieval: one child span per distinct query atom, and
         their hit+miss deltas sum to the retrieve phase's lookups *)
      let retrieve = List.hd root.T.children in
      let atom_io =
        List.fold_left
          (fun acc s ->
            acc
            + Option.value ~default:0 (int_attr "hits" s)
            + Option.value ~default:0 (int_attr "misses" s))
          0 retrieve.T.children
      in
      check_int "atom spans account for retrieve lookups"
        (Option.get (int_attr "lookups" retrieve))
        atom_io)

let test_trace_absent_records_nothing () =
  with_backend `Mem (fun inv ->
      (* no ?trace: the result must be identical — tracing is opt-in and
         must not perturb evaluation *)
      let q = Testutil.v q_uk in
      let plain = (E.query inv q).E.records in
      let trace = T.create "query" in
      let traced = (E.query ~trace inv q).E.records in
      check_records "same results with and without trace" plain traced)

(* A traced query without a list cache resolves each distinct atom once
   in retrieve (every lookup a miss, read as an undecoded payload) and
   eval reads those resolutions: it performs no lookup and no store read
   of its own. *)
let test_trace_uncached_one_lookup_per_atom () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v q_uk in
      let plain = (E.query inv q).E.records in
      let trace = T.create "query" in
      let r = E.query ~trace inv q in
      let root = T.finish trace in
      check_records "traced agrees" plain r.E.records;
      let span name = List.find (fun s -> s.T.name = name) root.T.children in
      let atoms = List.length (span "retrieve").T.children in
      check_int "one lookup per distinct atom" atoms
        (Option.get (int_attr "lookups" root));
      check_int "no cache, no hits" 0 (Option.get (int_attr "hits" root));
      check_int "eval looks nothing up" 0 (Option.get (int_attr "lookups" (span "eval")));
      check_bool "eval reads nothing" true (int_attr "reads" (span "eval") = None))

(* Untraced queries resolve each distinct atom once too, and inside an
   enclosing scope (as a batch or a join runs its queries) they read that
   scope's pins and add what it lacks: a second query over the same atoms
   looks nothing up. *)
let test_untraced_one_lookup_per_atom () =
  with_backend `Hash (fun inv ->
      let q = Testutil.v "{{UK, A, {A, motorbike}}, {A}}" in
      let lookups f =
        let l = IF.lookup_stats inv in
        let before = Storage.Io_stats.lookups l in
        let r = f () in
        (r, Storage.Io_stats.lookups l - before)
      in
      let plain, n = lookups (fun () -> (E.query inv q).E.records) in
      check_int "one lookup per distinct atom" 3 n;
      IF.with_query inv (fun () ->
          ignore (IF.pin inv "UK");
          let r, n = lookups (fun () -> (E.query inv q).E.records) in
          check_records "pinned agrees" plain r;
          check_int "the pinned atom is not looked up" 2 n;
          let r, n = lookups (fun () -> (E.query inv q).E.records) in
          check_records "pinned again agrees" plain r;
          check_int "the query's atoms joined the table" 0 n))

let lookups_of inv f =
  let l = IF.lookup_stats inv in
  let before = Storage.Io_stats.lookups l in
  let r = f () in
  (r, Storage.Io_stats.lookups l - before)

(* A batch is one scope: n queries over k distinct atoms, with no list
   cache, look up exactly k lists, and answer as the queries alone. *)
let test_batch_one_lookup_per_distinct_atom () =
  with_backend `Hash (fun inv ->
      check_bool "no cache" true (IF.cache inv = None);
      let qs =
        List.map Testutil.v [ q_uk; "{{UK, A}}"; "{{A, motorbike}}"; "{{UK, {A}}}" ]
      in
      let singles = List.map (fun q -> (E.query inv q).E.records) qs in
      let batched, n = lookups_of inv (fun () -> E.query_batch inv qs) in
      Alcotest.(check (list (list int)))
        "batch = singles" singles
        (List.map (fun r -> r.E.records) batched);
      check_int "one lookup per distinct atom (UK, A, motorbike)" 3 n;
      check_bool "no pin left behind" false (IF.pinned inv "UK"))

(* Under [minimize], a traced query in a batch records the same phases
   as the same query run alone. *)
let test_batch_keeps_minimize_span () =
  with_backend `Mem (fun inv ->
      let config = { E.default with E.minimize = true } in
      let q = Testutil.v "{{UK, {A, motorbike}, {A}}}" in
      let alone = T.create "query" in
      ignore (E.query ~config ~trace:alone inv q);
      let in_batch = T.create "query" in
      ignore
        (E.query_batch ~config ~traces:[ None; Some in_batch; None ] inv
           [ Testutil.v "{{USA}}"; q; Testutil.v "{{FR}}" ]);
      let alone = span_names (T.finish alone) in
      check_bool "minimize ran" true (List.mem "minimize" alone);
      Alcotest.(check (list string))
        "batched phases = alone" alone (span_names (T.finish in_batch)))

(* 200 records share the stopword s; one holds the rare atom z, so a
   query naming both narrows its cursors to that record. *)
let rare_collection () =
  Testutil.mem_collection
    (List.init 200 (fun i -> Printf.sprintf "{s, b%d}" i) @ [ "{s, z}" ])

(* A query in a batch weighs every atom, also those an earlier query
   pinned, so it picks the record filter it picks alone. *)
let test_batch_filter_as_alone () =
  let inv = rare_collection () in
  let filter_atom trace =
    let root = T.finish trace in
    attr "filter_atom" (List.find (fun s -> s.T.name = "eval") root.T.children)
  in
  let q = Testutil.v "{s, z}" in
  let alone = T.create "query" in
  ignore (E.query ~trace:alone inv q);
  let in_batch = T.create "query" in
  ignore (E.query_batch ~traces:[ None; Some in_batch ] inv [ Testutil.v "{z}"; q ]);
  let alone = filter_atom alone in
  Alcotest.(check (option string)) "alone: the rare atom" (Some "z") alone;
  Alcotest.(check (option string)) "in a batch: the same" alone (filter_atom in_batch)

(* A query that raises inside a batch scope leaves no pin and no record
   filter behind: the raising query (top-down-paper refuses [Iso]) first
   narrows its cursors to the one record holding its rare atom. *)
let test_raise_in_batch_leaves_nothing () =
  let inv = rare_collection () in
  let config = { E.default with E.algorithm = E.Top_down_paper; embedding = S.Iso } in
  let full = Invfile.Plist.length (IF.lookup inv "s") in
  (match E.query_batch ~config inv [ Testutil.v "{s, fresh}"; Testutil.v "{s, z}" ] with
  | _ -> Alcotest.fail "the second query should raise"
  | exception S.Unsupported _ -> ());
  List.iter
    (fun a -> check_bool ("no pin on " ^ a) false (IF.pinned inv a))
    [ "s"; "z"; "fresh" ];
  check_int "no filter on the cursors" full
    (Invfile.Plist.length (Invfile.Plist_stream.inter_many [ IF.cursor inv "s" ]))

(* The naive and signature scans read records, not lists: no retrieve
   phase and no list lookup. *)
let test_scans_look_up_no_list () =
  let inv = Testutil.mem_collection Testutil.licences_strings in
  let fi = Containment.Filter_index.build inv in
  List.iter
    (fun algorithm ->
      let config = { E.default with E.algorithm; filter_index = Some fi } in
      let q = Testutil.v "{USA, {UK, {A, motorbike}}}" in
      let r, n = lookups_of inv (fun () -> (E.query ~config inv q).E.records) in
      check_records "scan agrees" (E.query inv q).E.records r;
      check_int "no list lookup" 0 n;
      let trace = T.create "query" in
      ignore (E.query ~config ~trace inv q);
      check_bool "no retrieve phase" false
        (List.mem "retrieve" (span_names (T.finish trace))))
    [ E.Naive_scan; E.Signature_scan ]

(* The naive scan reads each record from the store once (the memory
   store counts one read per get). *)
let test_naive_reads_each_record_once () =
  with_backend `Mem (fun inv ->
      let reads f =
        let st = (IF.store inv).Storage.Kv.stats in
        let before = Storage.Io_stats.reads st in
        ignore (f ());
        Storage.Io_stats.reads st - before
      in
      let n = IF.record_count inv and q = Testutil.v "{USA}" in
      check_int "scan" n
        (reads (fun () -> Containment.Naive.scan inv (Containment.Query.of_value q)));
      check_int "matching_records" n
        (reads (fun () ->
             Containment.Naive.matching_records inv (Containment.Query.of_value q)));
      check_int "engine" n
        (reads (fun () ->
             E.query ~config:{ E.default with E.algorithm = E.Naive_scan } inv q)))

let test_trace_batch_positional () =
  with_backend `Mem (fun inv ->
      let qs = [ Testutil.v q_uk; Testutil.v "{{zzz_nowhere}}"; Testutil.v q_uk ] in
      (* trace only the middle query; results must match the untraced run
         positionally *)
      let plain = List.map (fun r -> r.E.records) (E.query_batch inv qs) in
      let t = T.create "query" in
      let traced =
        E.query_batch ~traces:[ None; Some t; None ] inv qs
        |> List.map (fun r -> r.E.records)
      in
      Alcotest.(check (list (list int))) "batch results unchanged" plain traced;
      let root = T.finish t in
      check_int "traced slot records its own result count"
        (List.length (List.nth plain 1))
        (Option.get (int_attr "records" root)))

(* Satellite: the EXPLAIN profile and an independent traced run of the
   same query must tell one story — the profile's phase list is exactly
   the trace's phase spans (same names, same order), each phase's
   [actual] equals the count the trace span recorded, and the estimate
   chain links verify's input to eval's output. *)
let test_explain_profile_reconciles_trace () =
  with_backend `Mem (fun inv ->
      let q = Testutil.v q_uk in
      let profile = E.explain_profile inv q in
      let trace = T.create "query" in
      let result = E.query ~trace inv q in
      let root = T.finish trace in
      Alcotest.(check (list string))
        "profile phases = trace spans, in order" (span_names root)
        (List.map
           (fun (p : Obs.Explain.phase) -> p.Obs.Explain.phase)
           profile.Obs.Explain.phases);
      let phase name =
        match
          List.find_opt
            (fun (p : Obs.Explain.phase) -> p.Obs.Explain.phase = name)
            profile.Obs.Explain.phases
        with
        | Some p -> p
        | None -> Alcotest.failf "profile lacks phase %S" name
      in
      let span name =
        List.find (fun (s : T.span) -> s.T.name = name) root.T.children
      in
      check_int "eval actual = traced candidates"
        (Option.get (int_attr "candidates" (span "eval")))
        (phase "eval").Obs.Explain.actual;
      check_int "verify actual = traced kept"
        (Option.get (int_attr "kept" (span "verify")))
        (phase "verify").Obs.Explain.actual;
      check_int "verify est = eval actual" (phase "eval").Obs.Explain.actual
        (phase "verify").Obs.Explain.est;
      check_int "retrieve actual = distinct query atoms"
        (List.length (span "retrieve").T.children)
        (phase "retrieve").Obs.Explain.actual;
      check_int "profile records = query result count"
        (List.length result.E.records)
        profile.Obs.Explain.records;
      (* the eval estimate is the rarest planned atom's posting length *)
      match profile.Obs.Explain.atoms with
      | rarest :: _ ->
        check_int "eval est = rarest list length" rarest.Obs.Explain.list_len
          (phase "eval").Obs.Explain.est
      | [] -> Alcotest.fail "profile lists no atoms")

let () =
  Alcotest.run "engine"
    [
      ( "backends",
        [
          Alcotest.test_case "agree" `Quick test_backends_agree;
          Alcotest.test_case "hash persists" `Quick test_hash_backend_persists;
        ] );
      ( "caching",
        [
          Alcotest.test_case "static transparent" `Quick test_static_cache_transparent;
          Alcotest.test_case "reduces io" `Quick test_cache_reduces_io;
          Alcotest.test_case "lru transparent" `Quick test_lru_cache_transparent;
        ] );
      ( "verify",
        [
          Alcotest.test_case "no-op when sound" `Quick test_verify_noop_on_sound_results;
          Alcotest.test_case "repairs published TD" `Quick test_verify_fixes_paper_td;
        ] );
      ( "workload",
        [
          Alcotest.test_case "counts" `Quick test_run_workload_counts;
          Alcotest.test_case "cache counters" `Quick test_run_workload_cache_counters;
        ] );
      ( "results",
        [
          Alcotest.test_case "record values" `Quick test_record_values;
          Alcotest.test_case "naive = indexed" `Quick test_naive_scan_matches_indexed;
          Alcotest.test_case "matching_records" `Quick test_matching_records_api;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "synthetic cross-config" `Quick
            test_cross_config_consistency_synthetic;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "reconciles with Io_stats" `Quick
            test_trace_reconciles_io_stats;
          Alcotest.test_case "opt-in, same results" `Quick
            test_trace_absent_records_nothing;
          Alcotest.test_case "uncached: one lookup per atom" `Quick
            test_trace_uncached_one_lookup_per_atom;
          Alcotest.test_case "batch: one lookup per distinct atom" `Quick
            test_batch_one_lookup_per_distinct_atom;
          Alcotest.test_case "batch: minimize span kept" `Quick
            test_batch_keeps_minimize_span;
          Alcotest.test_case "batch: filter as alone" `Quick test_batch_filter_as_alone;
          Alcotest.test_case "batch: a raise leaves nothing" `Quick
            test_raise_in_batch_leaves_nothing;
          Alcotest.test_case "scans look up no list" `Quick test_scans_look_up_no_list;
          Alcotest.test_case "naive reads each record once" `Quick
            test_naive_reads_each_record_once;
          Alcotest.test_case "untraced and nested: one lookup per atom" `Quick
            test_untraced_one_lookup_per_atom;
          Alcotest.test_case "batch: positional traces" `Quick
            test_trace_batch_positional;
          Alcotest.test_case "explain reconciles with trace" `Quick
            test_explain_profile_reconciles_trace;
        ] );
    ]
