(* Parallel workload execution must be a pure scale-up: the same results
   as the sequential engine, for any number of domains. *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module P = Containment.Parallel
module V = Nested.Value

let check_int = Alcotest.(check int)

(* A deterministic medium-size collection: the licences records plus
   generated data so slices are non-trivial at 4 domains. *)
let collection_strings =
  let st = Random.State.make [| 42 |] in
  let gen _ =
    V.to_string (Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st)
  in
  Testutil.licences_strings @ List.init 60 gen

let queries =
  let st = Random.State.make [| 7 |] in
  let all = List.map Testutil.v collection_strings in
  (* subqueries of actual records (guaranteed hits under hom) plus some
     independent random probes *)
  let subs =
    List.filteri (fun i _ -> i mod 3 = 0) all
    |> List.map (fun r ->
           let q = Testutil.shrink_to_subquery st r in
           if V.is_set q && V.elements q <> [] then q else r)
  in
  let probes =
    List.init 10 (fun _ -> Testutil.gen_leafy_set ~max_depth:2 ~max_width:3 st)
  in
  subs @ probes

let build path =
  let store = Storage.Log_store.create path in
  let b = Invfile.Builder.create store in
  List.iter (fun s -> ignore (Invfile.Builder.add_string b s)) collection_strings;
  IF.close (Invfile.Builder.finish b)

let sequential_baseline path config =
  let inv = IF.open_store (Storage.Log_store.open_existing path) in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  let stats = E.run_workload ~config inv queries in
  (stats.E.results_total, stats.E.positives)

let test_domains_match_sequential () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let config = E.default in
  let expected_total, expected_pos = sequential_baseline path config in
  Alcotest.(check bool) "workload finds something" true (expected_pos > 0);
  List.iter
    (fun domains ->
      let r =
        P.run_workload ~domains
          ~open_handle:(fun () ->
            IF.open_store (Storage.Log_store.open_existing path))
          ~config ~cache_budget:64 queries
      in
      check_int
        (Printf.sprintf "results_total with %d domain(s)" domains)
        expected_total r.P.results_total;
      check_int
        (Printf.sprintf "positives with %d domain(s)" domains)
        expected_pos r.P.positives)
    [ 1; 2; 4 ]

let test_domains_match_top_down () =
  Testutil.with_temp_path ".log" @@ fun path ->
  build path;
  let config = { E.default with E.algorithm = E.Top_down } in
  let expected_total, expected_pos = sequential_baseline path config in
  List.iter
    (fun domains ->
      let r =
        P.run_workload ~domains
          ~open_handle:(fun () ->
            IF.open_store (Storage.Log_store.open_existing path))
          ~config queries
      in
      check_int
        (Printf.sprintf "top-down results_total with %d domain(s)" domains)
        expected_total r.P.results_total;
      check_int
        (Printf.sprintf "top-down positives with %d domain(s)" domains)
        expected_pos r.P.positives)
    [ 2; 4 ]

(* --- Parallel.map: order, and exceptions only after every join --- *)

exception Item of int

let test_map_preserves_order () =
  let items = List.init 23 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order at %d domain(s)" domains)
        (List.map (fun i -> i * i) items)
        (P.map ~domains (fun i -> i * i) items))
    [ 1; 2; 4 ]

(* Items 1 and 3 raise at once while item 5 — dealt to a spawned domain
   at 2 and at 4 domains — is still running: item 1's exception must
   surface, and only after every other item has finished, i.e. after
   every domain was joined. *)
let test_map_first_exception_after_join () =
  List.iter
    (fun domains ->
      let finished = Atomic.make 0 in
      let f i =
        if i = 1 || i = 3 then raise (Item i);
        if i = 5 then Unix.sleepf 0.05;
        Atomic.incr finished
      in
      match P.map ~domains f (List.init 6 Fun.id) with
      | _ -> Alcotest.fail "map must re-raise"
      | exception Item i ->
        check_int (Printf.sprintf "first raising item at %d domain(s)" domains) 1 i;
        (* sequentially the map stops at item 1 (only item 0 ran); in
           parallel every non-raising item has run to completion *)
        check_int
          (Printf.sprintf "items finished before the raise at %d domain(s)" domains)
          (if domains = 1 then 1 else 4)
          (Atomic.get finished))
    [ 1; 2; 4 ]

(* default_domains must never answer 0, whatever NSCQ_DOMAINS holds —
   every consumer passes the result straight to Domain.spawn loops. *)
let test_default_domains_never_zero () =
  let saved = Sys.getenv_opt "NSCQ_DOMAINS" in
  Fun.protect ~finally:(fun () ->
      (* putenv cannot unset; empty parses as garbage → fallback, which
         matches the unset behaviour *)
      Unix.putenv "NSCQ_DOMAINS" (Option.value saved ~default:""))
  @@ fun () ->
  Unix.putenv "NSCQ_DOMAINS" "0";
  check_int "NSCQ_DOMAINS=0 clamps to 1" 1 (P.default_domains ());
  Unix.putenv "NSCQ_DOMAINS" "-3";
  check_int "negative clamps to 1" 1 (P.default_domains ());
  Unix.putenv "NSCQ_DOMAINS" "5";
  check_int "positive value is honoured" 5 (P.default_domains ());
  List.iter
    (fun garbage ->
      Unix.putenv "NSCQ_DOMAINS" garbage;
      Alcotest.(check bool)
        (Printf.sprintf "NSCQ_DOMAINS=%S falls back to >= 1" garbage)
        true
        (P.default_domains () >= 1))
    [ "garbage"; ""; "2.5" ]

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "1/2/4 domains = sequential (bottom-up)" `Quick
            test_domains_match_sequential;
          Alcotest.test_case "2/4 domains = sequential (top-down)" `Quick
            test_domains_match_top_down;
        ] );
      ( "map",
        [
          Alcotest.test_case "order at 1/2/4 domains" `Quick
            test_map_preserves_order;
          Alcotest.test_case "first exception in item order, after joins"
            `Quick test_map_first_exception_after_join;
        ] );
      ( "default_domains",
        [
          Alcotest.test_case "never returns 0 for any NSCQ_DOMAINS" `Quick
            test_default_domains_never_zero;
        ] );
    ]
