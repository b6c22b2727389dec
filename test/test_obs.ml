(* The observability layer in isolation: registry exactness under
   concurrent domains, histogram quantile behavior, text/JSON rendering,
   span-tree recording and its wire round-trip, and the slow-query line.

   The engine/server/router integration of tracing lives in
   test_engine.ml / test_server.ml / test_shard.ml. *)

module M = Obs.Metrics
module T = Obs.Trace

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- counters --- *)

let test_counter_basics () =
  let reg = M.create () in
  let c = M.counter reg "nscq_test_total" in
  check_int "fresh counter" 0 (M.counter_value c);
  M.inc c;
  M.add c 41;
  check_int "inc + add" 42 (M.counter_value c);
  (* same name and labels yield the same instrument *)
  let c' = M.counter reg "nscq_test_total" in
  M.inc c';
  check_int "shared series" 43 (M.counter_value c);
  (* distinct labels are distinct series *)
  let cl = M.counter reg "nscq_test_total" ~labels:[ ("shard", "0") ] in
  check_int "labelled series is fresh" 0 (M.counter_value cl);
  (* label order does not matter *)
  let a =
    M.counter reg "nscq_lbl_total" ~labels:[ ("a", "1"); ("b", "2") ]
  in
  M.inc a;
  let b =
    M.counter reg "nscq_lbl_total" ~labels:[ ("b", "2"); ("a", "1") ]
  in
  check_int "normalized label order" 1 (M.counter_value b)

let test_kind_clash () =
  let reg = M.create () in
  ignore (M.counter reg "nscq_clash");
  (match M.gauge reg "nscq_clash" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  match M.histogram reg "nscq_clash" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_invalid_name () =
  let reg = M.create () in
  match M.counter reg "bad name!" with
  | _ -> Alcotest.fail "invalid metric name accepted"
  | exception Invalid_argument _ -> ()

(* Concurrent bumps from multiple domains must sum exactly — the registry
   promises lock-free exact counting, not sampling. *)
let test_counter_concurrent_exact () =
  let reg = M.create () in
  let c = M.counter reg "nscq_concurrent_total" in
  let h = M.histogram reg "nscq_concurrent_us" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              M.inc c;
              M.observe h (float_of_int (i land 1023))
            done))
  in
  List.iter Domain.join workers;
  check_int "counter sums exactly" (domains * per_domain) (M.counter_value c);
  check_int "histogram count sums exactly" (domains * per_domain)
    (M.hist_count h)

let test_gauge_set_max () =
  let reg = M.create () in
  let g = M.gauge reg "nscq_highwater" in
  M.set_max g 3.;
  M.set_max g 7.;
  M.set_max g 5.;
  check_float "monotone max" 7. (M.gauge_value g);
  M.set g 1.;
  check_float "set overrides" 1. (M.gauge_value g)

(* --- histograms --- *)

(* Satellite regression: the empty histogram's quantile is 0, not an
   exception and not a bucket edge — Server_stats renders latency
   quantiles before the first request arrives. *)
let test_empty_histogram_quantile () =
  let reg = M.create () in
  let h = M.histogram reg "nscq_empty_us" in
  check_float "p50 of empty" 0. (M.quantile h 0.5);
  check_float "p99 of empty" 0. (M.quantile h 0.99);
  check_int "count" 0 (M.hist_count h);
  check_float "sum" 0. (M.hist_sum h)

let test_histogram_quantile_monotone () =
  let reg = M.create () in
  let h = M.histogram reg "nscq_mono_us" in
  let st = Random.State.make [| 19; 82 |] in
  for _ = 1 to 2_000 do
    M.observe h (Random.State.float st 1e6)
  done;
  let ps = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
  let qs = List.map (M.quantile h) ps in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
      if a > b then
        Alcotest.failf "quantiles not monotone: %f > %f" a b;
      check_sorted rest
    | _ -> ()
  in
  check_sorted qs;
  (* each quantile is an upper bucket edge: at most 2x above the true
     rank value, never below any observation that bounds it *)
  List.iter
    (fun q -> if q <= 0. then Alcotest.fail "quantile collapsed to zero")
    qs

let test_histogram_buckets () =
  let reg = M.create () in
  let h = M.histogram reg "nscq_edges_us" in
  (* bucket 0 holds everything <= 2; quantile of a single observation is
     its bucket's upper edge *)
  M.observe h 0.5;
  check_float "tiny value lands in bucket 0 (edge 2)" 2. (M.quantile h 0.5);
  let reg = M.create () in
  let h = M.histogram reg "nscq_edges2_us" in
  M.observe h 1000.;
  let q = M.quantile h 0.5 in
  if q < 1000. || q > 2000. then
    Alcotest.failf "1000 should report an edge in [1000, 2000], got %f" q;
  check_float "sum accumulates the raw value" 1000. (M.hist_sum h)

(* --- rendering --- *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_render_text () =
  let reg = M.create () in
  let c = M.counter reg "nscq_reqs_total" ~help:"Requests" in
  M.add c 3;
  let cl = M.counter reg "nscq_reqs_total" ~labels:[ ("shard", "1") ] in
  M.inc cl;
  let g = M.gauge reg "nscq_depth" in
  M.set g 2.5;
  let h = M.histogram reg "nscq_lat_us" in
  M.observe h 3.;
  M.register_callback reg ~kind:`Counter "nscq_cb_total" (fun () -> 9.);
  let out = M.render_text reg in
  List.iter
    (fun sub ->
      if not (contains ~sub out) then
        Alcotest.failf "missing %S in:\n%s" sub out)
    [
      "# HELP nscq_reqs_total Requests";
      "# TYPE nscq_reqs_total counter";
      "nscq_reqs_total 3";
      "nscq_reqs_total{shard=\"1\"} 1";
      "# TYPE nscq_depth gauge";
      "nscq_depth 2.5";
      "# TYPE nscq_lat_us histogram";
      "nscq_lat_us_bucket{le=\"+Inf\"} 1";
      "nscq_lat_us_sum 3";
      "nscq_lat_us_count 1";
      "nscq_cb_total 9";
    ]

let test_render_json () =
  let reg = M.create () in
  let c = M.counter reg "nscq_j_total" ~labels:[ ("k", "v\"q") ] in
  M.inc c;
  let h = M.histogram reg "nscq_j_us" in
  M.observe h 5.;
  let out = M.render_json reg in
  List.iter
    (fun sub ->
      if not (contains ~sub out) then
        Alcotest.failf "missing %S in:\n%s" sub out)
    [
      "\"name\":\"nscq_j_total\"";
      "\"k\":\"v\\\"q\"";  (* quote in a label value is escaped *)
      "\"kind\":\"counter\"";
      "\"p95\"";
      "\"count\":1";
    ]

(* Every JSON renderer of the library emits what the JSON parser reads
   back: a control byte in a name is escaped, a non-finite number is
   null. *)
let test_json_renderers_parse () =
  let module J = Textformats.Json in
  let parse what s =
    match J.of_string s with
    | v -> v
    | exception J.Parse_error { message; _ } -> Alcotest.failf "%s: %s in %S" what message s
  in
  let name = "ph\001ase\n" in
  let reg = M.create () in
  M.set (M.gauge reg "nscq_nan" ~labels:[ ("k", name) ]) Float.nan;
  M.set (M.gauge reg "nscq_inf") Float.infinity;
  (match parse "metrics" (M.render_json reg) with
  | J.Array [ inf; nan ] ->
    check_bool "nan is null" true (J.member "value" nan = Some J.Null);
    check_bool "inf is null" true (J.member "value" inf = Some J.Null);
    check_bool "label kept" true
      (Option.bind (J.member "labels" nan) (J.member "k") = Some (J.String name))
  | _ -> Alcotest.fail "metrics: two series expected");
  let text = M.render_text reg in
  check_bool "text spells NaN" true (contains ~sub:"} NaN\n" text);
  check_bool "text spells +Inf" true (contains ~sub:"nscq_inf +Inf\n" text);
  let ev kind = { Obs.Recorder.time_us = 5L; domain = 1; kind; a8 = 3; a16 = 0; a32 = 7 } in
  (match
     parse "recorder"
       (Obs.Recorder.render_json ~names:[ (3, name) ] [ ev Obs.Recorder.Phase_begin ])
   with
  | J.Array [ e ] -> check_bool "recorder name kept" true (J.member "name" e = Some (J.String name))
  | _ -> Alcotest.fail "recorder: one event expected");
  let x =
    Obs.Explain.make ~target:name ~query:"{a}"
      ~atoms:[ { Obs.Explain.atom = name; list_len = 1; bytes = 2; codec = "varint"; blocks = 0 } ]
      ~phases:[ { Obs.Explain.phase = "eval"; est = 1; actual = 1; ms = Float.nan; notes = [ (name, name) ] } ]
      ()
  in
  let j = parse "explain" (Obs.Explain.to_json x) in
  check_bool "explain target kept" true (J.member "target" j = Some (J.String name))

let test_callback_replacement () =
  let reg = M.create () in
  let cell = ref 1. in
  M.register_callback reg ~kind:`Gauge "nscq_cb_g" (fun () -> !cell);
  cell := 5.;
  if not (contains ~sub:"nscq_cb_g 5" (M.render_text reg)) then
    Alcotest.fail "callback not sampled at render time";
  (* re-registration replaces: a reopened handle takes over the series *)
  M.register_callback reg ~kind:`Gauge "nscq_cb_g" (fun () -> 8.);
  if not (contains ~sub:"nscq_cb_g 8" (M.render_text reg)) then
    Alcotest.fail "re-registration did not replace the callback"

(* --- traces --- *)

let test_span_tree () =
  let t = T.create "query" in
  T.add_attr t "records" "3";
  let x =
    T.span t "retrieve" (fun () ->
        T.span t "atom:a" (fun () -> ());
        T.span t "atom:b" (fun () -> T.add_attr t "hits" "1");
        17)
  in
  check_int "span returns f's value" 17 x;
  T.span t "eval" (fun () -> ());
  let root = T.finish t in
  check_string "root name" "query" root.T.name;
  Alcotest.(check (list string))
    "phases in recording order" [ "retrieve"; "eval" ]
    (List.map (fun (s : T.span) -> s.T.name) root.T.children);
  let retrieve = List.hd root.T.children in
  Alcotest.(check (list string))
    "atom spans in recording order" [ "atom:a"; "atom:b" ]
    (List.map (fun (s : T.span) -> s.T.name) retrieve.T.children);
  let atom_b = List.nth retrieve.T.children 1 in
  check_string "attr attached to innermost open span" "1"
    (List.assoc "hits" atom_b.T.attrs);
  check_string "root attr" "3" (List.assoc "records" root.T.attrs);
  List.iter
    (fun (s : T.span) ->
      if s.T.duration_s < 0. then Alcotest.fail "span left open")
    (root :: root.T.children)

let test_span_exception_safety () =
  let t = T.create "query" in
  (try T.span t "boom" (fun () -> failwith "inner") with Failure _ -> ());
  let root = T.finish t in
  match root.T.children with
  | [ s ] ->
    check_string "span closed by the exception path" "boom" s.T.name;
    if s.T.duration_s < 0. then Alcotest.fail "raised span left open"
  | _ -> Alcotest.fail "expected exactly the one raising span"

let test_trace_wire_roundtrip () =
  let t = T.create ~id:0x2ABCDEF "query" in
  T.add_attr t "records" "2";
  T.span t "retrieve" (fun () ->
      T.span t "atom:weird \tname=x%" (fun () -> T.add_attr t "k\t2" "v=1\n"));
  T.span t "verify" (fun () -> ());
  let root = T.finish t in
  let wire = T.to_wire ~id:(T.id t) root in
  match T.of_wire wire with
  | None -> Alcotest.fail "of_wire rejected its own to_wire"
  | Some (id, root') ->
    check_int "id round-trips" 0x2ABCDEF id;
    let rec strip (s : T.span) =
      Printf.sprintf "%s[%s](%s)" s.T.name
        (String.concat ","
           (List.map (fun (k, v) -> k ^ "=" ^ v) s.T.attrs))
        (String.concat ";" (List.map strip s.T.children))
    in
    if strip root' <> strip root then
      Alcotest.failf "tree changed across the wire:\n%s\nvs\n%s"
        (T.render root) (T.render root');
    (* timings survive to µs precision *)
    let rel = abs_float (root'.T.duration_s -. root.T.duration_s) in
    if rel > 2e-6 then Alcotest.fail "duration lost precision"

let test_trace_of_wire_garbage () =
  (match T.of_wire "" with
  | None -> ()
  | Some _ -> Alcotest.fail "empty string parsed as a trace");
  (match T.of_wire "0 2 5" with
  | None -> ()
  | Some _ -> Alcotest.fail "id payload parsed as a trace");
  match T.of_wire "trace zz\nnot\ta\tvalid\tline" with
  | None -> ()
  | Some _ -> Alcotest.fail "garbage header parsed as a trace"

let test_graft_and_make_span () =
  let t = T.create "scatter" in
  let sub = T.create ~id:(T.id t) "shard:0" in
  T.span sub "eval" (fun () -> ());
  T.graft t (T.finish sub);
  T.graft t
    (T.make_span ~name:"shard:1" ~start_s:0. ~duration_s:0.001
       ~attrs:[ ("remote", "true") ]
       ());
  let root = T.finish t in
  Alcotest.(check (list string))
    "grafted children in order" [ "shard:0"; "shard:1" ]
    (List.map (fun (s : T.span) -> s.T.name) root.T.children);
  (* grafting a finished subtree must not re-reverse its internals when
     the outer trace finishes *)
  let shard0 = List.hd root.T.children in
  Alcotest.(check (list string))
    "grafted subtree untouched" [ "eval" ]
    (List.map (fun (s : T.span) -> s.T.name) shard0.T.children)

(* --- the phase vocabulary --- *)

(* The names are wire strings: Trace/Explain payloads and recorder dumps
   carry them, so each is pinned here. *)
let test_phase_names () =
  let module P = Obs.Phase in
  let pinned =
    [ (P.Minimize, "minimize"); (P.Prefilter, "prefilter");
      (P.Retrieve, "retrieve"); (P.Eval, "eval"); (P.Verify, "verify");
      (P.Build_tree, "build-tree"); (P.Intersect, "intersect") ]
  in
  check_int "every phase pinned" (List.length P.all) (List.length pinned);
  List.iter (fun (p, n) -> check_string n n (P.name p)) pinned;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (P.name p ^ " round-trips") true
        (P.of_name (P.name p) = Some p))
    P.all;
  List.iter
    (fun n -> Alcotest.(check bool) ("non-phase span " ^ n) true (P.of_name n = None))
    [ "memtable"; "preflight"; "prefetch" ]

(* --- slow-query log --- *)

let test_slow_log_line () =
  let t = T.create "query" in
  T.span t "retrieve" (fun () -> ());
  T.span t "eval" (fun () -> ());
  T.add_attr t "lookups" "10";
  let root = T.finish t in
  let line =
    Obs.Slow_log.line ~digest:"00c0ffee" ~trace:root ~latency_ms:12.34
      ~threshold_ms:10. ()
  in
  List.iter
    (fun sub ->
      if not (contains ~sub line) then
        Alcotest.failf "missing %S in %S" sub line)
    [ "slow_query"; "digest=00c0ffee"; "latency_ms=12.3"; "threshold_ms=10.0";
      "phases=[retrieve="; "eval="; "io=[lookups=10]" ];
  if String.contains line '\n' then Alcotest.fail "slow line must be one line";
  (* without a trace the line still identifies the request *)
  let bare = Obs.Slow_log.line ~latency_ms:1.5 ~threshold_ms:1. () in
  if contains ~sub:"phases" bare then
    Alcotest.fail "traceless line should omit phases"

let test_slow_log_ring () =
  let l = Obs.Slow_log.create ~capacity:4 () in
  check_int "capacity" 4 (Obs.Slow_log.capacity l);
  check_int "fresh length" 0 (Obs.Slow_log.length l);
  check_int "fresh dropped" 0 (Obs.Slow_log.dropped l);
  Obs.Slow_log.add l "a";
  Obs.Slow_log.add l "b";
  Alcotest.(check (list string))
    "oldest first before wrap" [ "a"; "b" ] (Obs.Slow_log.entries l);
  for i = 1 to 10 do
    Obs.Slow_log.add l (Printf.sprintf "line%d" i)
  done;
  check_int "length stays bounded" 4 (Obs.Slow_log.length l);
  check_int "dropped counts evictions" 8 (Obs.Slow_log.dropped l);
  Alcotest.(check (list string))
    "newest kept, oldest first"
    [ "line7"; "line8"; "line9"; "line10" ]
    (Obs.Slow_log.entries l);
  check_int "default capacity" 128 (Obs.Slow_log.capacity (Obs.Slow_log.create ()))

(* --- text exposition grammar ---

   Scrapers parse the text format line by line; one raw newline or
   unescaped quote inside a HELP string or a label value corrupts every
   series after it. The property feeds adversarial strings through real
   instruments and re-parses the whole exposition. *)

let name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* one sample line: name ('{' (label '=' '"' escaped '"' ','?)* '}')? ' ' float *)
let valid_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && name_char line.[!i] do
    incr i
  done;
  if !i = 0 then false
  else begin
    let ok = ref true in
    (if !i < n && line.[!i] = '{' then begin
       incr i;
       let closed = ref false in
       while (not !closed) && !ok do
         let start = !i in
         while !i < n && name_char line.[!i] do
           incr i
         done;
         if !i = start || !i >= n || line.[!i] <> '=' then ok := false
         else begin
           incr i;
           if !i >= n || line.[!i] <> '"' then ok := false
           else begin
             incr i;
             let fin = ref false in
             while (not !fin) && !ok do
               if !i >= n then (ok := false; fin := true)
               else begin
                 (match line.[!i] with
                 | '\\' ->
                   (* only the three legal escapes *)
                   if
                     !i + 1 >= n
                     || not (List.mem line.[!i + 1] [ '\\'; '"'; 'n' ])
                   then ok := false
                   else incr i
                 | '"' -> fin := true
                 | _ -> ());
                 incr i
               end
             done;
             if !ok then
               if !i < n && line.[!i] = ',' then incr i
               else if !i < n && line.[!i] = '}' then begin
                 incr i;
                 closed := true
               end
               else ok := false
           end
         end
       done
     end);
    !ok && !i < n
    && line.[!i] = ' '
    && Option.is_some
         (float_of_string_opt (String.sub line (!i + 1) (n - !i - 1)))
  end

let exposition_well_formed out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> l <> "")
  |> List.for_all (fun line ->
         if String.length line > 0 && line.[0] = '#' then
           String.length line > 7
           && (String.sub line 0 7 = "# HELP " || String.sub line 0 7 = "# TYPE ")
         else valid_sample line)

let prop_exposition_well_formed =
  Testutil.qcheck_case ~name:"text exposition stays machine-parseable"
    QCheck.(pair string string)
    (fun (help, label_v) ->
      let reg = M.create () in
      let c = M.counter reg "nscq_prop_total" ~help ~labels:[ ("k", label_v) ] in
      M.add c 2;
      let g = M.gauge reg "nscq_prop_depth" ~help in
      M.set g 1.25;
      let h = M.histogram reg "nscq_prop_us" ~labels:[ ("k", label_v) ] in
      M.observe h 1.5;
      M.register_callback reg ~help ~labels:[ ("k", label_v) ] ~kind:`Gauge
        "nscq_prop_cb" (fun () -> 3.);
      exposition_well_formed (M.render_text reg))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "invalid name" `Quick test_invalid_name;
          Alcotest.test_case "concurrent exactness" `Quick
            test_counter_concurrent_exact;
          Alcotest.test_case "gauge set_max" `Quick test_gauge_set_max;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "empty quantile is 0" `Quick
            test_empty_histogram_quantile;
          Alcotest.test_case "quantile monotonicity" `Quick
            test_histogram_quantile_monotone;
          Alcotest.test_case "bucket edges" `Quick test_histogram_buckets;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "text exposition" `Quick test_render_text;
          Alcotest.test_case "json dump" `Quick test_render_json;
          Alcotest.test_case "json renderers parse" `Quick test_json_renderers_parse;
          Alcotest.test_case "callback replacement" `Quick
            test_callback_replacement;
          prop_exposition_well_formed;
        ] );
      ( "traces",
        [
          Alcotest.test_case "span tree" `Quick test_span_tree;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "wire round-trip" `Quick test_trace_wire_roundtrip;
          Alcotest.test_case "of_wire rejects garbage" `Quick
            test_trace_of_wire_garbage;
          Alcotest.test_case "graft and make_span" `Quick
            test_graft_and_make_span;
        ] );
      ( "phases",
        [ Alcotest.test_case "names and of_name" `Quick test_phase_names ] );
      ( "slow-log",
        [
          Alcotest.test_case "line format" `Quick test_slow_log_line;
          Alcotest.test_case "bounded ring" `Quick test_slow_log_ring;
        ] );
    ]
