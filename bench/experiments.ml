(* One function per reproduced table/figure (see DESIGN.md, Sec. 5 for the
   experiment index). Sizes are scaled down from the paper's 125K-4M; pass
   --full for larger runs. Every experiment prints the series the paper's
   figure plots. *)

(* Console output is this program's purpose, and executables have no
   interface files: R2/R5 are opted out explicitly rather than scoped
   away, so the rest of the rules (R1 above all) still apply. *)
[@@@lint.allow io mli]

module E = Containment.Engine
module S = Containment.Semantics
module IF = Invfile.Inverted_file
module H = Harness

type scale = { sizes : int list; deep_sizes : int list; real_sizes : int list }

let default_scale =
  { sizes = [ 1_000; 2_000; 4_000; 8_000 ];
    deep_sizes = [ 1_000; 2_000; 4_000 ];
    real_sizes = [ 1_000; 2_000; 4_000; 8_000 ] }

let full_scale =
  { sizes = [ 8_000; 16_000; 32_000; 64_000; 128_000 ];
    deep_sizes = [ 8_000; 16_000; 32_000 ];
    real_sizes = [ 8_000; 16_000; 32_000; 64_000 ] }

(* --- data sources --- *)

(* Deep records are capped at depth 10 here: Table 3's deep parameters
   describe a supercritical branching process, and the default cap of 16
   yields thousands of nodes per record — far heavier than the paper's
   setting allows at any scale (see DESIGN.md, inventory entry 14). *)
let synthetic shape dist ~seed count =
  let max_depth =
    match shape with Datagen.Synthetic.Wide -> 16 | Datagen.Synthetic.Deep -> 10
  in
  Datagen.Synthetic.seq
    (Datagen.Synthetic.make ~seed
       ~params:(Datagen.Synthetic.params_of_shape ~max_depth shape)
       dist)
    count

let twitter ~seed count =
  Datagen.Twitter_sim.seq (Datagen.Twitter_sim.make ~seed ()) count

let dblp ~seed count = Datagen.Dblp_sim.seq (Datagen.Dblp_sim.make ~seed ()) count

(* --- the Figure-6 harness: 4 series (algorithm × cache) over sizes --- *)

let cache_budget = 250 (* the paper's setting for all experiments *)

let fig6_series ~name ~title ~source sizes =
  H.print_header title
    (Printf.sprintf
       "100 queries (50 pos / 50 neg) per size; cache = %d hottest lists; \
        elapsed ms for the whole workload (paper Fig. 6 reports the same \
        quantity)."
       cache_budget);
  let rows =
    List.map
      (fun size ->
        H.with_collection ~name:(Printf.sprintf "%s_%d" name size)
          (source size)
          (fun inv ->
            let queries = H.paper_queries inv in
            let run algorithm cached =
              IF.detach_cache inv;
              if cached then Containment.Collection.with_static_cache inv ~budget:cache_budget;
              H.measure_workload ~config:{ E.default with E.algorithm } inv queries
            in
            let td = run E.Top_down false in
            let td_c = run E.Top_down true in
            let bu = run E.Bottom_up false in
            let bu_c = run E.Bottom_up true in
            [ H.i size; H.ms td; H.ms td_c; H.ms bu; H.ms bu_c ]))
      sizes
  in
  H.print_table
    ~columns:[ "records"; "td"; "td+cache"; "bu"; "bu+cache" ]
    rows

let fig6a scale =
  fig6_series ~name:"uw" ~title:"Figure 6a: uniform wide synthetic"
    ~source:(fun n -> synthetic Datagen.Synthetic.Wide Datagen.Synthetic.Uniform ~seed:1 n)
    scale.sizes

let fig6b scale =
  fig6_series ~name:"ud" ~title:"Figure 6b: uniform deep synthetic"
    ~source:(fun n -> synthetic Datagen.Synthetic.Deep Datagen.Synthetic.Uniform ~seed:2 n)
    scale.deep_sizes

let fig6c scale =
  fig6_series ~name:"sw" ~title:"Figure 6c: skewed (θ=0.7) wide synthetic"
    ~source:(fun n ->
      synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:3 n)
    scale.sizes

let fig6d scale =
  fig6_series ~name:"sd" ~title:"Figure 6d: skewed (θ=0.7) deep synthetic"
    ~source:(fun n ->
      synthetic Datagen.Synthetic.Deep (Datagen.Synthetic.Zipfian 0.7) ~seed:4 n)
    scale.deep_sizes

let fig6e scale =
  fig6_series ~name:"tw" ~title:"Figure 6e: Twitter (synthetic stand-in, skewed)"
    ~source:(fun n -> twitter ~seed:5 n)
    scale.real_sizes

let fig6f scale =
  fig6_series ~name:"db" ~title:"Figure 6f: DBLP (synthetic stand-in, skewed)"
    ~source:(fun n -> dblp ~seed:6 n)
    scale.real_sizes

(* --- skew sweep: the full paper also varies θ ∈ {0.5, 0.7, 0.9} --- *)

let skew_sweep scale =
  H.print_header "Skew sweep: θ ∈ {0.5, 0.7, 0.9} on wide synthetic"
    "Fixed size, bottom-up; the paper observes that skew raises costs.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  let rows =
    List.map
      (fun theta ->
        H.with_collection ~name:(Printf.sprintf "skew_%.1f" theta)
          (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian theta) ~seed:7 size)
          (fun inv ->
            let queries = H.paper_queries inv in
            let plain = H.measure_workload inv queries in
            Containment.Collection.with_static_cache inv ~budget:cache_budget;
            let cached = H.measure_workload inv queries in
            [ Printf.sprintf "%.1f" theta; H.i size; H.ms plain; H.ms cached ]))
      [ 0.5; 0.7; 0.9 ]
  in
  let uniform_row =
    H.with_collection ~name:"skew_uniform"
      (synthetic Datagen.Synthetic.Wide Datagen.Synthetic.Uniform ~seed:7 size)
      (fun inv ->
        let queries = H.paper_queries inv in
        let plain = H.measure_workload inv queries in
        Containment.Collection.with_static_cache inv ~budget:cache_budget;
        let cached = H.measure_workload inv queries in
        [ "unif"; H.i size; H.ms plain; H.ms cached ])
  in
  H.print_table ~columns:[ "θ"; "records"; "bu"; "bu+cache" ] (uniform_row :: rows)

(* --- E4: naive baseline vs the inverted-file algorithms --- *)

let naive_baseline scale =
  H.print_header "E4: naive full-scan baseline vs indexed algorithms"
    "Sec. 3, comment (1): pairwise subtree-homomorphism over every record.";
  let rows =
    List.map
      (fun size ->
        H.with_collection ~name:(Printf.sprintf "naive_%d" size)
          (synthetic Datagen.Synthetic.Wide Datagen.Synthetic.Uniform ~seed:8 size)
          (fun inv ->
            (* the naive scan is expensive: 10 queries, 3 repeats *)
            let queries =
              H.paper_queries ~count:10 inv
            in
            let run algorithm =
              H.measure_workload ~repeats:3 ~config:{ E.default with E.algorithm } inv
                queries
            in
            let naive = run E.Naive_scan in
            let td = run E.Top_down in
            let bu = run E.Bottom_up in
            [ H.i size; H.ms naive; H.ms td; H.ms bu;
              Printf.sprintf "%.0f×" (naive /. Float.max 0.001 (Float.min td bu)) ]))
      (List.filteri (fun i _ -> i < 3) scale.sizes)
  in
  H.print_table ~columns:[ "records"; "naive"; "td"; "bu"; "speedup" ] rows

(* --- E5: Bloom prefilters --- *)

let bloom_prefilter scale =
  H.print_header "E5: hierarchical Bloom prefilters (Sec. 3.3)"
    "Breadth vs Depth filters; positive and negative query halves timed \
     separately (filters mainly reject negatives early).";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"bloom"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:9 size)
    (fun inv ->
      let all = Datagen.Workload.benchmark_queries ~seed:271 ~count:100 inv in
      let pos =
        Datagen.Workload.values (List.filter (fun q -> q.Datagen.Workload.positive) all)
      in
      let neg =
        Datagen.Workload.values
          (List.filter (fun q -> not q.Datagen.Workload.positive) all)
      in
      let breadth = Containment.Filter_index.build ~kind:Containment.Filter_index.Breadth inv in
      let depth = Containment.Filter_index.build ~kind:Containment.Filter_index.Depth inv in
      let run filter_index queries =
        H.measure_workload ~config:{ E.default with E.filter_index } inv queries
      in
      let survivors fi queries =
        (* average prefilter selectivity *)
        let total, n =
          List.fold_left
            (fun (t, n) q ->
              match
                (E.query ~config:{ E.default with E.filter_index = Some fi } inv q)
                  .E.prefilter_survivors
              with
              | Some s -> (t + s, n + 1)
              | None -> (t, n))
            (0, 0) queries
        in
        if n = 0 then 0. else Float.of_int total /. Float.of_int n
      in
      H.print_table
        ~columns:[ "filter"; "mem KiB"; "pos"; "neg"; "avg survivors (neg)" ]
        [
          [ "none"; "0"; H.ms (run None pos); H.ms (run None neg); H.i size ];
          [
            "breadth";
            H.i (Containment.Filter_index.memory_bytes breadth / 1024);
            H.ms (run (Some breadth) pos);
            H.ms (run (Some breadth) neg);
            Printf.sprintf "%.1f" (survivors breadth neg);
          ];
          [
            "depth";
            H.i (Containment.Filter_index.memory_bytes depth / 1024);
            H.ms (run (Some depth) pos);
            H.ms (run (Some depth) neg);
            Printf.sprintf "%.1f" (survivors depth neg);
          ];
        ])

(* --- E6: join extensions --- *)

let join_extensions scale =
  H.print_header "E6: set-based join extensions (Sec. 4.1)"
    "100-query workloads per join type, bottom-up, cache on.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"joins"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:10 size)
    (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let queries = H.paper_queries inv in
      let results join =
        let s = E.run_workload ~config:{ E.default with E.join } inv queries in
        (H.measure_workload ~config:{ E.default with E.join } inv queries, s.E.results_total)
      in
      let rows =
        List.map
          (fun (label, join) ->
            let t, total = results join in
            [ label; H.ms t; H.i total ])
          [
            ("containment", S.Containment);
            ("equality", S.Equality);
            ("superset", S.Superset);
            ("overlap ε=1", S.Overlap 1);
            ("overlap ε=2", S.Overlap 2);
          ]
      in
      H.print_table ~columns:[ "join"; "elapsed"; "results" ] rows)

(* --- E7: embedding semantics --- *)

let embedding_semantics scale =
  H.print_header "E7: embedding semantics (Sec. 4.2)"
    "hom vs iso vs homeo on the same workload, both algorithms.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"semantics"
    (synthetic Datagen.Synthetic.Deep Datagen.Synthetic.Uniform ~seed:11 size)
    (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let queries = H.paper_queries inv in
      let rows =
        List.map
          (fun (label, embedding) ->
            let run algorithm =
              H.measure_workload
                ~config:{ E.default with E.embedding; E.algorithm }
                inv queries
            in
            [ label; H.ms (run E.Top_down); H.ms (run E.Bottom_up) ])
          [ ("hom", S.Hom); ("iso", S.Iso); ("homeo", S.Homeo);
            ("homeo-full", S.Homeo_full) ]
      in
      H.print_table ~columns:[ "semantics"; "td"; "bu" ] rows)

(* --- E8: cache budget ablation --- *)

let cache_ablation scale =
  H.print_header "E8: cache budget ablation (Sec. 3.3 / 6)"
    "Static most-frequent-list cache of varying budget; skewed data, \
     bottom-up. The paper fixes budget = 250.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"cachebudget"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.9) ~seed:12 size)
    (fun inv ->
      let queries = H.paper_queries inv in
      let rows =
        List.map
          (fun budget ->
            IF.detach_cache inv;
            if budget > 0 then Containment.Collection.with_static_cache inv ~budget;
            let t = H.measure_workload inv queries in
            let stats = E.run_workload inv queries in
            [
              H.i budget;
              H.ms t;
              Printf.sprintf "%.0f%%"
                (100.
                *. Float.of_int stats.E.cache_hits
                /. Float.of_int (max 1 (stats.E.cache_hits + stats.E.cache_misses)));
            ])
          [ 0; 10; 50; 100; 250; 500; 1000 ]
      in
      H.print_table ~columns:[ "budget (lists)"; "elapsed"; "hit rate" ] rows)

(* --- E9: cache policy comparison (static / LRU / LFU) --- *)

let cache_policies scale =
  H.print_header "E9: cache policies (Sec. 6 future work: workload-adaptive caching)"
    "Same budget (250), different policies, skewed data.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"cachepol"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:13 size)
    (fun inv ->
      let queries = H.paper_queries inv in
      let rows =
        List.map
          (fun (label, attach) ->
            IF.detach_cache inv;
            attach ();
            let t = H.measure_workload inv queries in
            [ label; H.ms t ])
          [
            ("none", fun () -> ());
            ( "static-250",
              fun () -> Containment.Collection.with_static_cache inv ~budget:250 );
            ( "lru-250",
              fun () ->
                IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Lru ~capacity:250) );
            ( "lfu-250",
              fun () ->
                IF.attach_cache inv (Invfile.Cache.create Invfile.Cache.Lfu ~capacity:250) );
          ]
      in
      H.print_table ~columns:[ "policy"; "elapsed" ] rows)

(* --- E10: storage backends --- *)

let backends scale =
  H.print_header "E10: storage backends"
    "Same collection and workload on the in-memory store, the on-disk hash \
     store (the paper's setting), and the on-disk B+tree.";
  let size = List.nth scale.sizes 1 in
  let values () =
    synthetic Datagen.Synthetic.Wide Datagen.Synthetic.Uniform ~seed:14 size
  in
  let rows =
    List.map
      (fun (label, backend) ->
        H.with_collection ~backend ~name:("backend_" ^ label) (values ())
          (fun inv ->
            let queries = H.paper_queries inv in
            [ label; H.ms (H.measure_workload inv queries) ]))
      [ ("mem", H.Mem); ("hash", H.Hash) ]
    @ [
        (let path = H.scratch_path "backend_btree.tcb" in
         H.remove_if_exists path;
         let store = Storage.Btree_store.create path in
         let builder = Invfile.Builder.create store in
         Seq.iter (fun v -> ignore (Invfile.Builder.add_value builder v)) (values ());
         let inv = Invfile.Builder.finish builder in
         Fun.protect
           ~finally:(fun () ->
             IF.close inv;
             H.remove_if_exists path)
           (fun () ->
             let queries = H.paper_queries inv in
             [ "btree"; H.ms (H.measure_workload inv queries) ]));
      ]
  in
  H.print_table ~columns:[ "backend"; "elapsed" ] rows

(* --- E11: top-down variants (published vs strict) --- *)

let td_variants scale =
  H.print_header "E11: top-down variants"
    "The algorithm exactly as published (head-granular intersection) vs the \
     strict per-path variant; result counts may differ on branching queries \
     (see DESIGN.md).";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"tdvar"
    (synthetic Datagen.Synthetic.Deep Datagen.Synthetic.Uniform ~seed:15 size)
    (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let queries = H.paper_queries inv in
      let row label algorithm =
        let s = E.run_workload ~config:{ E.default with E.algorithm } inv queries in
        [
          label;
          H.ms (H.measure_workload ~config:{ E.default with E.algorithm } inv queries);
          H.i s.E.results_total;
        ]
      in
      H.print_table ~columns:[ "variant"; "elapsed"; "results" ]
        [ row "published" E.Top_down_paper; row "strict" E.Top_down;
          row "bottom-up" E.Bottom_up ])

(* --- E12: low-memory modes (the paper's 'other assumptions') --- *)

let low_memory scale =
  H.print_header "E12: low-memory modes (Sec. 5.1, assumptions (1) and (2))"
    "The one candidate path without a list cache (cursors over the stored \
     payloads, decoding only the blocks they land on) and the \
     external-memory bottom-up stack on top of it.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"lowmem"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:16 size)
    (fun inv ->
      let queries = H.paper_queries inv in
      let spill_path = H.scratch_path "lowmem.stk" in
      let rows =
        [
          [ "payload cursors (default)"; H.ms (H.measure_workload inv queries) ];
          [
            "external stack";
            H.ms
              (H.measure_workload
                 ~config:{ E.default with E.spill_to = Some spill_path }
                 inv queries);
          ];
        ]
      in
      H.remove_if_exists spill_path;
      H.print_table ~columns:[ "mode"; "elapsed" ] rows)

(* --- E13: top-down child ordering --- *)

let td_ordering scale =
  H.print_header "E13: top-down child-processing order (Sec. 6, item (1))"
    "Query order vs most-selective-first on skewed data.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"tdorder"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.9) ~seed:17 size)
    (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let queries = H.paper_queries inv in
      let run td_order =
        H.measure_workload
          ~config:{ E.default with E.algorithm = E.Top_down; E.td_order }
          inv queries
      in
      H.print_table ~columns:[ "order"; "elapsed" ]
        [
          [ "query order"; H.ms (run Containment.Top_down.Query_order) ];
          [ "selectivity"; H.ms (run Containment.Top_down.Selectivity) ];
        ])

(* --- E14: postings codec ablation --- *)

let codec_ablation scale =
  H.print_header "E14: postings codec ablation"
    "Plain delta/varint vs block-partitioned postings payloads vs the \
     length rule (varint up to one block, blocked beyond): index size and \
     query time on the same collection, its lists rewritten per row.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  let values =
    List.of_seq (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:18 size)
  in
  let inv = Containment.Collection.of_values values in
  let store = IF.store inv in
  let is_list key = String.length key > 0 && key.[0] = 'a' in
  let lists = ref [] in
  store.Storage.Kv.iter (fun key payload ->
      if is_list key || key = IF.meta_nodes then
        lists := (key, Invfile.Plist.of_bytes payload) :: !lists);
  let queries = H.paper_queries inv in
  let rows =
    List.map
      (fun (label, codec) ->
        List.iter (fun (key, l) -> store.Storage.Kv.put key (Invfile.Plist.to_bytes ?codec l)) !lists;
        IF.refresh inv;
        let postings_bytes = ref 0 in
        store.Storage.Kv.iter (fun key payload ->
            if is_list key then postings_bytes := !postings_bytes + String.length payload);
        let t = H.measure_workload inv queries in
        [ label; H.i (!postings_bytes / 1024); H.ms t ])
      [ ("varint", Some Invfile.Plist.Varint); ("blocked", Some Invfile.Plist.Blocked); ("rule", None) ]
  in
  H.print_table ~columns:[ "codec"; "postings KiB"; "elapsed" ] rows

(* --- E16: signature-file baseline --- *)

let signature_baseline scale =
  H.print_header "E16: signature-file baseline vs inverted file"
    "Per-record hierarchical signatures scanned and oracle-verified, vs the \
     inverted-file algorithms; positive and negative halves separately.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"sig"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:20 size)
    (fun inv ->
      let fi = Containment.Filter_index.build inv in
      let all = Datagen.Workload.benchmark_queries ~seed:271 ~count:100 inv in
      let pos = Datagen.Workload.values (List.filter (fun q -> q.Datagen.Workload.positive) all) in
      let neg =
        Datagen.Workload.values (List.filter (fun q -> not q.Datagen.Workload.positive) all)
      in
      let run config queries = H.measure_workload ~config inv queries in
      let sig_config =
        { E.default with E.algorithm = E.Signature_scan; E.filter_index = Some fi }
      in
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      H.print_table ~columns:[ "algorithm"; "pos"; "neg" ]
        [
          [ "bottom-up (cache)"; H.ms (run E.default pos); H.ms (run E.default neg) ];
          [ "signature scan"; H.ms (run sig_config pos); H.ms (run sig_config neg) ];
        ])

(* --- E15: multicore scale-up --- *)

let multicore scale =
  H.print_header "E15: multicore scale-up (the paper runs single-threaded)"
    "Same workload split across OCaml 5 domains, one store handle and cache \
     per domain; on-disk hash store.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  let path = H.scratch_path "multicore.tch" in
  H.remove_if_exists path;
  let store = Storage.Hash_store.create ~buckets:(1 lsl 16) path in
  let builder = Invfile.Builder.create store in
  Seq.iter
    (fun v -> ignore (Invfile.Builder.add_value builder v))
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:19 size);
  let inv0 = Invfile.Builder.finish builder in
  let queries =
    (* a heavier batch so the spawn overhead amortizes *)
    List.concat (List.init 10 (fun _ -> H.paper_queries inv0))
  in
  IF.close inv0;
  let open_handle () = IF.open_store (Storage.Hash_store.open_existing path) in
  let base = ref 0. in
  let available = Containment.Parallel.default_domains () in
  Printf.printf
    "(default worker count %d — NSCQ_DOMAINS or cores - 1; speedups need real \
     cores)\n"
    available;
  let counts =
    (* always include 2 domains to exercise the parallel path; larger counts
       only when the host has the cores *)
    List.filter (fun d -> d <= max 2 available) [ 1; 2; 4; 8 ]
  in
  let rows =
    List.map
      (fun domains ->
        let r =
          Containment.Parallel.run_workload ~domains ~open_handle ~cache_budget:250
            queries
        in
        if domains = 1 then base := r.Containment.Parallel.elapsed_s;
        [
          H.i domains;
          H.ms (1000. *. r.Containment.Parallel.elapsed_s);
          Printf.sprintf "%.2f×" (!base /. r.Containment.Parallel.elapsed_s);
          H.i r.Containment.Parallel.results_total;
        ])
      counts
  in
  H.remove_if_exists path;
  H.print_table ~columns:[ "domains"; "elapsed"; "speedup"; "results" ] rows

(* --- E17: negative queries end at their first empty list --- *)

let negatives scale =
  H.print_header "E17: negative queries end at their first empty list"
    "Containment queries with a missing atom stop resolving atoms at the \
     first empty list and answer empty without running the algorithm; \
     positive and negative workload halves timed separately on the \
     default engine.";
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  H.with_collection ~name:"preflight"
    (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:21 size)
    (fun inv ->
      let all = Datagen.Workload.benchmark_queries ~seed:271 ~count:100 inv in
      let pos = Datagen.Workload.values (List.filter (fun q -> q.Datagen.Workload.positive) all) in
      let neg =
        Datagen.Workload.values (List.filter (fun q -> not q.Datagen.Workload.positive) all)
      in
      let run queries = H.measure_workload inv queries in
      H.print_table ~columns:[ "engine"; "pos"; "neg" ]
        [ [ "default"; H.ms (run pos); H.ms (run neg) ] ])

(* --- E18: record storage format --- *)

let record_format scale =
  H.print_header "E18: record storage format (syntax vs dictionary-coded binary)"
    "Size of the stored record values and the cost of the scans that read \
     them (naive baseline over 10 queries).";
  let size = List.nth scale.sizes 1 in
  let values =
    List.of_seq (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:22 size)
  in
  let rows =
    List.map
      (fun (label, record_format) ->
        let inv = Containment.Collection.of_values ~record_format values in
        let record_bytes = ref 0 in
        (IF.store inv).Storage.Kv.iter (fun key payload ->
            if String.length key > 1 && key.[0] = 'r' && key.[1] = ':' then
              record_bytes := !record_bytes + String.length payload);
        let queries = H.paper_queries ~count:10 inv in
        let t =
          H.measure_workload ~repeats:3
            ~config:{ E.default with E.algorithm = E.Naive_scan }
            inv queries
        in
        [ label; H.i (!record_bytes / 1024); H.ms t ])
      [ ("syntax", `Syntax); ("binary", `Binary) ]
  in
  H.print_table ~columns:[ "format"; "records KiB"; "naive scan" ] rows

(* --- E19: complexity validation, time vs |q| --- *)

(* Chain records of fixed depth; query k = the chain prefix of depth k, so
   |q| grows linearly while the collection is fixed — the paper's
   O(|q| · |S|) analysis predicts linear growth in both coordinates (the
   |S| coordinate is the size sweep of the Figure-6 experiments). *)
let complexity scale =
  H.print_header "E19: worst-case analysis check — query time vs |q|"
    "Fixed collection of depth-24 chains; queries are chain prefixes of \
     growing depth. O(|q|·|S|) predicts linear growth.";
  let size = List.nth scale.sizes 0 in
  let depth = 24 in
  let rng = Random.State.make [| 23 |] in
  let label () = "c" ^ string_of_int (Random.State.int rng 50) in
  let rec chain d =
    let leaves = [ Nested.Value.atom (label ()); Nested.Value.atom (label ()) ] in
    if d = 0 then Nested.Value.set leaves
    else Nested.Value.set (leaves @ [ chain (d - 1) ])
  in
  let records = List.init size (fun _ -> chain (depth - 1)) in
  H.with_collection ~name:"complexity" (List.to_seq records) (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let base = List.nth records 7 in
      (* prefix of the query chain at depth k *)
      let rec prefix k v =
        if k <= 1 then Nested.Value.set (List.filter Nested.Value.is_atom (Nested.Value.elements v))
        else
          Nested.Value.set
            (List.map
               (fun e -> if Nested.Value.is_set e then prefix (k - 1) e else e)
               (Nested.Value.elements v))
      in
      let rows =
        List.map
          (fun k ->
            let q = prefix k base in
            let queries = [ q ] in
            let td =
              H.measure_workload ~repeats:7
                ~config:{ E.default with E.algorithm = E.Top_down }
                inv queries
            in
            let bu =
              H.measure_workload ~repeats:7
                ~config:{ E.default with E.algorithm = E.Bottom_up }
                inv queries
            in
            [ H.i k; H.i (Nested.Value.internal_count q); H.ms td; H.ms bu ])
          [ 2; 4; 8; 12; 16; 20; 24 ]
      in
      H.print_table ~columns:[ "depth"; "|q| nodes"; "td (ms)"; "bu (ms)" ] rows)

(* --- data for the subsystem experiments E20-E27 --- *)

(* the skewed-wide collection at the largest size of the ladder *)
let skewed_wide ~seed scale =
  synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed
    (List.nth scale.sizes (List.length scale.sizes - 1))

(* live stores and shard sets are directories; the harness scratch
   helpers only know files *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

(* A live store in [dir] holding [values], sealed into a segment every
   [seal_every] records. WAL fsync is off: E25 and E27 time lock,
   memtable and seal work, not disk sync. *)
let live_store dir ~seal_every values =
  let module LS = Live.Live_store in
  rm_rf dir;
  let store =
    LS.create dir
      ~config:
        { LS.default with LS.flush_records = 0; max_segments = 0;
          auto_compact = false; wal_sync = false }
  in
  List.iteri
    (fun i v ->
      ignore (LS.insert store v);
      if (i + 1) mod seal_every = 0 then ignore (LS.flush store))
    values;
  if LS.memtable_records store > 0 then ignore (LS.flush store);
  store

(* --- E20: server under closed-loop load --- *)

let serve_load scale =
  H.print_header "E20: server throughput under closed-loop load"
    "An in-process nscq server (wire protocol, domain pool, batching) \
     driven by N closed-loop clients, each issuing the 100-query paper \
     workload back-to-back over its own connection; throughput and exact \
     latency quantiles per concurrency level, each request timed at its \
     client from send to reply.";
  let inv0, _ = H.build ~name:"serve_load" (skewed_wide ~seed:29 scale) in
  let queries = List.map Nested.Value.to_string (H.paper_queries inv0) in
  IF.close inv0;
  let path = H.scratch_path "serve_load.tch" in
  let open_handle () = IF.open_store (Storage.Hash_store.open_existing path) in
  let domains = Containment.Parallel.default_domains () in
  Printf.printf "(server runs %d worker domain(s))\n" domains;
  let rows =
    List.map
      (fun clients ->
        let cfg =
          {
            Server.Service.default_config with
            Server.Service.port = 0;
            domains;
            queue_cap = 128;
            stats_interval_s = 0.;
          }
        in
        let srv = Server.Service.start cfg ~open_handle in
        let errors = Atomic.make 0 in
        (* each client thread fills its own slot *)
        let latencies = Array.make clients [||] in
        let client k () =
          let c = Server.Client.connect ~port:(Server.Service.port srv) () in
          Fun.protect
            ~finally:(fun () -> Server.Client.close c)
            (fun () ->
              latencies.(k) <-
                H.latencies_ms
                  (fun q -> if Result.is_error (Server.Client.query c q) then Atomic.incr errors)
                  queries)
        in
        let (), elapsed =
          H.time (fun () ->
              List.iter Thread.join (List.init clients (fun k -> Thread.create (client k) ())))
        in
        let mean_batch = Server.Server_stats.mean_batch (Server.Service.stats srv) in
        Server.Service.stop srv;
        let sorted = Array.concat (Array.to_list latencies) in
        Array.sort Float.compare sorted;
        let requests = float_of_int (clients * List.length queries) in
        ( Printf.sprintf "clients=%d" clients,
          [ H.cell "requests" "" requests;
            H.cell "errors" "" (float_of_int (Atomic.get errors));
            H.cell "elapsed" "ms" (1000. *. elapsed);
            H.cell "throughput" "req/s" (requests /. elapsed);
            H.cell "p50" "ms" (H.quantile sorted 0.50);
            H.cell "p95" "ms" (H.quantile sorted 0.95);
            H.cell "p99" "ms" (H.quantile sorted 0.99);
            H.cell "mean_batch" "" mean_batch ] ))
      [ 1; 2; 4; 8 ]
  in
  H.remove_if_exists path;
  H.report rows

(* --- E21: sharded scatter-gather scaling --- *)

let shard_scaling scale =
  H.print_header "E21: throughput vs shard count (scatter-gather router)"
    "One collection of fixed size partitioned into 1/2/4/8 shards (hash \
     placement), queried through the shard router with the 100-query \
     paper workload; per-query latency quantiles and throughput per \
     shard count. The 1-shard row is the single-store baseline plus \
     router overhead.";
  let values = List.of_seq (skewed_wide ~seed:29 scale) in
  (* workload selected against a throwaway single-store build *)
  let queries =
    H.with_collection ~name:"shard_scaling_oracle" (List.to_seq values) H.paper_queries
  in
  let dir = H.scratch_path "shard_scaling" in
  let rows =
    List.map
      (fun shards ->
        rm_rf dir;
        Unix.mkdir dir 0o755;
        let m =
          Shard.Partitioner.build ~shards ~manifest_path:(Filename.concat dir "m.manifest")
            values
        in
        let r = Shard.Router.open_manifest m in
        let latencies = H.latencies_ms (Shard.Router.query r) queries in
        Shard.Router.close r;
        let elapsed_ms = Array.fold_left ( +. ) 0. latencies in
        ( Printf.sprintf "shards=%d" shards,
          [ H.cell "records" "" (float_of_int (List.length values));
            H.cell "elapsed" "ms" elapsed_ms;
            H.cell "throughput" "q/s"
              (1000. *. float_of_int (List.length queries) /. elapsed_ms);
            H.cell "p50" "ms" (H.quantile latencies 0.50);
            H.cell "p95" "ms" (H.quantile latencies 0.95) ] ))
      [ 1; 2; 4; 8 ]
  in
  rm_rf dir;
  H.report rows

(* --- E22 and E26: instrumentation overhead on the paper workload --- *)

(* The paper workload against the cached skewed-wide collection,
   through the A/B runner with the modes [modes inv] builds. *)
let paper_ab scale ~name ~passes ~gates modes =
  H.with_collection ~name (skewed_wide ~seed:31 scale) (fun inv ->
      Containment.Collection.with_static_cache inv ~budget:cache_budget;
      let base, others = modes inv in
      ignore (H.ab ~passes ~gates base others (H.paper_queries inv)))

let obs_overhead scale =
  H.print_header "E22: observability overhead (tracing off vs. on)"
    "The paper workload against one wide-zipfian collection, run with \
     tracing disabled (no ?trace argument — the default) and enabled (a \
     fresh span tree per query). The instrumentation cost when off is an \
     Option match per phase, so the A/A row bounds it together with run \
     noise.";
  paper_ab scale ~name:"obs_overhead" ~passes:5
    ~gates:[ (("A/A", "pass_overhead"), H.At_most 5.) ]
    (fun inv ->
      ( H.mode "tracing off" (fun q -> (E.query inv q).E.records),
        [ H.mode "tracing on" (fun q ->
              let trace = Obs.Trace.create "query" in
              let r = E.query ~trace inv q in
              ignore (Obs.Trace.finish trace);
              r.E.records) ] ))

(* --- E23: intersection kernels --- *)

let intersect scale =
  H.print_header "E23: intersection kernels (galloping, blocked skipping)"
    "Micro-benchmark of the list-intersection kernels over synthetic \
     postings: two-pointer merge on materialized arrays (the Plist_ref \
     oracle), Plist_stream galloping over in-memory cursors (cached \
     lists), decode-then-merge over 'V' payloads (both lists decoded \
     whole into columns, then galloped), and Plist_stream's \
     block skipping over 'C' payload cursors. Sweeps the length ratio of the two \
     lists and the density of the big one; every kernel's result is \
     checked against the oracle before timing.";
  let module L = Invfile.Plist in
  let module R = Invfile.Plist_ref in
  let module St = Invfile.Plist_stream in
  let posting_of_id node =
    let h = (node * 2654435761) land 0x3FFFFFFF in
    {
      R.node;
      children = Array.init (h land 3) (fun k -> node + 1 + k + ((h lsr 2) land 7));
      leaf_count = (h lsr 8) land 15;
      post = node + ((h lsr 12) land 255);
      parent = (if node = 0 then -1 else (h lsr 5) mod node);
    }
  in
  let size = List.nth scale.sizes (List.length scale.sizes - 1) in
  let big_n = min 400_000 (size * 25) in
  let sample big k =
    (* every (n/k)-th posting of [big]: all hits, evenly spread *)
    let step = max 1 (Array.length big / k) in
    Array.init k (fun i -> big.(i * step))
  in
  (* per-op seconds: inner reps grown until a sample spans >= 10 ms,
     best of 3 samples *)
  let time f =
    let reps = ref 1 in
    let once () =
      snd (H.time (fun () -> for _ = 1 to !reps do ignore (Sys.opaque_identity (f ())) done))
      /. float_of_int !reps
    in
    let t = ref (once ()) in
    while !t *. float_of_int !reps < 0.01 && !reps < 1_000_000 do
      reps := !reps * 4;
      t := once ()
    done;
    let best = ref !t in
    for _ = 1 to 2 do
      best := min !best (once ())
    done;
    !best
  in
  let rows =
    List.concat_map
      (fun (density, stride) ->
        let big = Array.init big_n (fun i -> posting_of_id (i * stride)) in
        let big_l = R.to_plist big in
        let big_v = L.to_bytes ~codec:L.Varint big_l in
        let big_c = L.to_bytes ~codec:L.Blocked big_l in
        List.map
          (fun ratio ->
            let small = sample big (max 1 (big_n / ratio)) in
            let small_l = R.to_plist small in
            let small_v = L.to_bytes ~codec:L.Varint small_l in
            let small_c = L.to_bytes ~codec:L.Blocked small_l in
            let expect = R.inter small big in
            let check name got =
              if R.of_plist got <> expect then
                failwith
                  (Printf.sprintf "E23: %s kernel diverges from the oracle (%s 1:%d)"
                     name density ratio)
            in
            let gallop () =
              St.inter_many [ St.cursor_of_plist small_l; St.cursor_of_plist big_l ]
            in
            (* decode both lists whole, then intersect the decoded columns *)
            let varint () =
              St.inter_many
                [ St.cursor_of_plist (L.of_bytes small_v);
                  St.cursor_of_plist (L.of_bytes big_v) ]
            in
            let blocked () =
              St.inter_many [ St.cursor_of_bytes small_c; St.cursor_of_bytes big_c ]
            in
            check "gallop" (gallop ());
            check "varint" (varint ());
            check "blocked" (blocked ());
            let t_merge = time (fun () -> R.inter small big) in
            let t_gallop = time gallop in
            let t_varint = time varint in
            let t_blocked = time blocked in
            let headline = stride > 1 && ratio = 4096 in
            ( Printf.sprintf "%s 1:%d" density ratio,
              [ H.cell "merge" "ms" (1000. *. t_merge);
                H.cell "gallop" "ms" (1000. *. t_gallop);
                H.cell "varint+merge" "ms" (1000. *. t_varint);
                H.cell "blocked" "ms" (1000. *. t_blocked);
                H.cell
                  ?bound:(if headline then Some (H.At_least 5.) else None)
                  "speedup" "x" (t_varint /. t_blocked) ] ))
          [ 1; 16; 256; 4096 ])
      [ ("dense", 1); ("sparse", 17) ]
  in
  H.report rows;
  (* phase attribution: one uncached query over a blocked-codec collection,
     rendered through the tracing spans so retrieval/merge time is visible *)
  let values =
    List.of_seq
      (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7) ~seed:23
         (min size 4_000))
  in
  let inv = Containment.Collection.of_values values in
  (match H.paper_queries ~count:2 inv with
  | q :: _ ->
    let trace = Obs.Trace.create "intersect" in
    ignore (E.query ~trace inv q);
    print_string (Obs.Trace.render (Obs.Trace.finish trace))
  | [] -> ());
  IF.close inv

(* --- E24: set-containment join scaling --- *)

let join_scaling scale =
  H.print_header "E24: set-containment join (prefix tree vs naive loop)"
    "Paired collections from Datagen.Paired (containment selectivity 0.3, \
     Zipf θ=0.7, label pool scaled to inner/16 so atoms repeat across \
     outer sets — the regime a prefix tree amortizes): the inner \
     collection is indexed, the outer collection is joined against it two \
     ways — the naive per-query engine loop and the PRETTI-style \
     prefix-tree join with adaptive LIMIT+ cuts. Every row is gated on \
     pair-set equality against the naive oracle.";
  (* rows grow 4x faster than the shared size ladder (the join amortizes
     over volume), and the ladder always ends on the acceptance workload's
     10k x 100k row — that is the row the gate is judged on *)
  let inner_sizes =
    100_000 :: List.map (fun s -> min (4 * s) 100_000) scale.sizes
    |> List.sort_uniq Int.compare
  in
  let rows =
    List.map
      (fun inner_n ->
        let outer_n = max 50 (min (inner_n / 5) 10_000) in
        let pool_n = max 500 (inner_n / 16) in
        let w =
          Datagen.Paired.make ~seed:67
            ~pool:(Datagen.Label_pool.create pool_n)
            ~label_dist:(Datagen.Synthetic.Zipfian 0.7) ~selectivity:0.3
            ~inner:inner_n ~outer:outer_n ()
        in
        H.with_collection ~name:"join_scaling" (List.to_seq w.Datagen.Paired.inner)
        @@ fun inv ->
        Containment.Collection.with_static_cache inv ~budget:cache_budget;
        let outers = Datagen.Workload.values w.Datagen.Paired.outer in
        let naive_pairs, naive_s = H.time (fun () -> Join.Engine.naive inv outers) in
        let r, join_s = H.time (fun () -> Join.Engine.join inv outers) in
        (* the oracle gate: cuts, cursor narrowing and engine routing must not
           change the answer, at any scale *)
        if r.Join.Engine.pairs <> naive_pairs then
          failwith
            (Printf.sprintf
               "E24 oracle violation at %dx%d: join returned %d pairs, naive \
                %d"
               outer_n inner_n
               (List.length r.Join.Engine.pairs)
               (List.length naive_pairs));
        let s = r.Join.Engine.stats in
        let count metric v = H.cell metric "" (float_of_int v) in
        ( Printf.sprintf "%dx%d" outer_n inner_n,
          [ count "pairs" s.Join.Engine.pairs;
            H.cell "naive" "ms" (1000. *. naive_s);
            H.cell "join" "ms" (1000. *. join_s);
            H.cell
              ?bound:(if inner_n = 100_000 then Some (H.At_least 5.) else None)
              "speedup" "x" (naive_s /. join_s);
            count "tree_nodes" s.Join.Engine.tree_nodes;
            count "nodes_expanded" s.Join.Engine.nodes_expanded;
            count "shared" s.Join.Engine.intersections_shared;
            count "recomputed" s.Join.Engine.intersections_recomputed;
            count "limit_cuts" s.Join.Engine.limit_cuts;
            count "fallback" s.Join.Engine.fallback ] ))
      inner_sizes
  in
  H.report rows

(* --- E25: query latency under live ingestion --- *)

let ingest scale =
  let module LS = Live.Live_store in
  H.print_header "E25: query latency under live ingestion (lib/live)"
    "One live store per row, the same wide-zipfian records sealed into \
     1/4/16 segments; the paper workload is timed twice — against the \
     idle store, then again while a writer domain ingests ~1.6k fresh \
     records/s in bursts, flushing every 1024 so the memtable stays \
     bounded and segment seals land mid-measurement (the LSM steady \
     state). Every idle answer is gated on id-sequence equality against \
     a from-scratch rebuild, and the post-ingest store is gated the \
     same way once the writer stops. WAL fsync is off so the \
     interference measured is lock, memtable, and seal work — not disk \
     sync.";
  let values = List.of_seq (skewed_wide ~seed:31 scale) in
  let size = List.length values in
  (* fresh records for the concurrent writer, disjoint seed *)
  let feed =
    Array.of_seq
      (synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian 0.7)
         ~seed:97 2_000)
  in
  (* the workload and its expected answers, from one rebuilt oracle *)
  let queries, expected =
    H.with_collection ~name:"ingest_oracle" (List.to_seq values) (fun inv ->
        let qs = H.paper_queries inv in
        (qs, List.map (fun q -> (E.query inv q).E.records) qs))
  in
  (* 20 passes x 100 queries = 2000 samples per phase, so the p99 is the
     20th-worst — a steady-state quantile, not one unlucky seal stall *)
  let reps = 20 in
  let rows =
    List.map
      (fun segments ->
        let dir = H.scratch_path (Printf.sprintf "ingest_%d.live" segments) in
        (* seal the load into exactly [segments] segments *)
        let store = live_store dir ~seal_every:((size + segments - 1) / segments) values in
        let oracle phase = Printf.sprintf "E25 oracle violation at %d segments (%s)" segments phase
        in
        (* idle gate: the live store must answer exactly like the rebuild *)
        H.check_oracle (oracle "idle") (LS.query store) queries expected;
        let measure () = H.latencies_ms ~reps (LS.query store) queries in
        let idle = measure () in
        let stop = Atomic.make false and ingested = Atomic.make 0 in
        let writer =
          Domain.spawn (fun () ->
              let i = ref 0 in
              while not (Atomic.get stop) do
                (* short bursts: the same ~1.6k/s spread thin, so a query
                   never queues behind a long run of writer lock holds *)
                for _ = 1 to 4 do
                  ignore (LS.insert store feed.(!i mod Array.length feed));
                  incr i;
                  if !i mod 1024 = 0 then ignore (LS.flush store)
                done;
                Atomic.set ingested !i;
                Unix.sleepf 0.0025
              done;
              Atomic.set ingested !i)
        in
        let busy, busy_wall = H.time measure in
        Atomic.set stop true;
        Domain.join writer;
        let ingested = Atomic.get ingested in
        (* post-ingest gate: rebuild from the final live records (ids are
           0..n-1 on both sides — the workload was insert-only) *)
        let final =
          List.rev (LS.fold_live store ~init:[] ~f:(fun acc _ v -> v :: acc))
        in
        H.with_collection ~name:"ingest_rebuild" (List.to_seq final) (fun inv ->
            H.check_oracle (oracle "post-ingest") (LS.query store) queries
              (List.map (fun q -> (E.query inv q).E.records) queries));
        let seg_end = LS.segment_count store in
        LS.close store;
        rm_rf dir;
        let idle_p99 = H.quantile idle 0.99 and busy_p99 = H.quantile busy 0.99 in
        ( Printf.sprintf "segments=%d" segments,
          [ H.cell "segments_end" "" (float_of_int seg_end);
            H.cell "records" "" (float_of_int size);
            H.cell "ingested" "" (float_of_int ingested);
            H.cell "ingest_rate" "rec/s" (float_of_int ingested /. busy_wall);
            H.cell "idle_p50" "ms" (H.quantile idle 0.50);
            H.cell "idle_p99" "ms" idle_p99;
            H.cell "busy_p50" "ms" (H.quantile busy 0.50);
            H.cell "busy_p99" "ms" busy_p99;
            H.cell ~bound:(H.At_most 2.) "p99_ratio" "x" (busy_p99 /. idle_p99) ] ))
      [ 1; 4; 16 ]
  in
  H.report rows

(* --- E26: flight-recorder overhead --- *)

let recorder_overhead scale =
  H.print_header "E26: flight-recorder overhead (always-on vs. disabled)"
    "The E22 workload (paper queries against one wide-zipfian collection) \
     with the flight recorder disabled and enabled (query/phase events \
     into the per-domain ring, exactly what nscq serve leaves on). Each \
     query's latency is its best over the passes, so the percentiles \
     compare steady-state instrumentation cost, not scheduler noise.";
  paper_ab scale ~name:"recorder_overhead" ~passes:7
    ~gates:
      [ (("recorder on", "p50_overhead"), H.At_most 5.);
        (("recorder on", "p99_overhead"), H.At_most 5.) ]
    (fun inv ->
      let query q = (E.query inv q).E.records in
      ( H.mode "recorder off" ~enter:Obs.Recorder.disable query,
        [ H.mode "recorder on" ~enter:Obs.Recorder.enable query ] ));
  let events, dropped = Obs.Recorder.stats () in
  H.report
    [ ( "recorder on",
        [ H.cell "events" "" (float_of_int events);
          H.cell "events_dropped" "" (float_of_int dropped) ] ) ]

(* --- E27: race-sanitizer overhead --- *)

let racesan_overhead scale =
  let module LS = Live.Live_store in
  H.print_header "E27: race-sanitizer overhead (NSCQ_TSAN on vs. off)"
    "The E22-style paper workload against a live store, whose query \
     path crosses a Racesan-guarded mutex per query — per-query latency \
     sampled with the sanitizer off and on (held-lock bookkeeping plus \
     a guarded-cell assert per locked section), as in E26. The enabled \
     run must record zero findings — the tree's lock contracts hold \
     under measurement. The disabled path is gated directly: the cost \
     of a disabled check (one atomic load and a branch, micro-benched) \
     times the checks per query (calibrated from the sanitizer's own \
     counter) must stay under 1% of the disabled-mode p50.";
  let values = List.of_seq (skewed_wide ~seed:31 scale) in
  let dir = H.scratch_path "racesan.live" in
  let store = live_store dir ~seal_every:2048 values in
  Fun.protect ~finally:(fun () -> LS.close store; rm_rf dir) (fun () ->
  let queries =
    H.with_collection ~name:"racesan_oracle" (List.to_seq values) H.paper_queries
  in
  let query q = LS.query store q in
  Racesan.reset ();
  (* checks per query: the sanitizer's own counter over every query the
     enabled mode answers *)
  let checks_before = Racesan.checks () and answered = ref 0 in
  (* the oracle gate: sanitizing must not change answers *)
  let results =
    H.ab ~passes:7
      (H.mode "sanitizer off" ~enter:(fun () -> Racesan.set_enabled false) query)
      [ H.mode "sanitizer on" ~enter:(fun () -> Racesan.set_enabled true) (fun q ->
            incr answered;
            query q) ]
      queries
  in
  let checks_per_query =
    float_of_int (Racesan.checks () - checks_before) /. float_of_int !answered
  in
  let finding_count = List.length (Racesan.findings ()) in
  if finding_count > 0 then
    failwith
      (Printf.sprintf "E27: %d race finding(s) under measurement"
         finding_count);
  Racesan.reset ();
  (* disabled-path unit cost: one check with the sanitizer off *)
  let probe_lock = Lockdep.create "bench.racesan.probe" in
  let probe = Racesan.register ~name:"bench.racesan.probe" ~lock:probe_lock in
  let iters = 10_000_000 in
  let (), s = H.time (fun () -> for _ = 1 to iters do Racesan.check probe done) in
  let disabled_check_ns = 1e9 *. s /. float_of_int iters in
  (* the 1% gate for the compiled-in disabled path: per-check cost times
     checks per query, as a share of the disabled-mode p50 *)
  H.report
    [ ( "disabled path",
        [ H.cell "checks_per_query" "" checks_per_query;
          H.cell "check_cost" "ns" disabled_check_ns;
          H.cell ~bound:(H.At_most 1.) "disabled_overhead" "%"
            (100. *. (disabled_check_ns *. checks_per_query /. 1e3)
             /. H.quantile (List.hd results).H.lat_us 0.50) ] ) ])

(* --- registry --- *)

let all : (string * string * (scale -> unit)) list =
  [
    ("fig6a", "uniform wide synthetic (Experiment 1)", fig6a);
    ("fig6b", "uniform deep synthetic (Experiment 1)", fig6b);
    ("fig6c", "skewed wide synthetic (Experiment 2)", fig6c);
    ("fig6d", "skewed deep synthetic (Experiment 2)", fig6d);
    ("fig6e", "Twitter collection (Experiment 3)", fig6e);
    ("fig6f", "DBLP collection (Experiment 3)", fig6f);
    ("skew", "skew sweep θ ∈ {0.5,0.7,0.9}", skew_sweep);
    ("naive", "naive baseline (E4)", naive_baseline);
    ("bloom", "Bloom prefilters (E5)", bloom_prefilter);
    ("joins", "join extensions (E6)", join_extensions);
    ("semantics", "embedding semantics (E7)", embedding_semantics);
    ("cache-ablation", "cache budget ablation (E8)", cache_ablation);
    ("cache-policies", "cache policies (E9)", cache_policies);
    ("backends", "storage backends (E10)", backends);
    ("td-variants", "top-down variants (E11)", td_variants);
    ("low-memory", "payload cursors / external stack (E12)", low_memory);
    ("td-ordering", "top-down child ordering (E13)", td_ordering);
    ("codec", "postings codec ablation (E14)", codec_ablation);
    ("multicore", "multicore scale-up (E15)", multicore);
    ("signature", "signature-file baseline (E16)", signature_baseline);
    ("preflight", "negative queries' early stop (E17)", negatives);
    ("record-format", "record storage format (E18)", record_format);
    ("complexity", "time vs |q| analysis check (E19)", complexity);
    ("serve-load", "server under closed-loop load (E20)", serve_load);
    ("shard-scaling", "sharded scatter-gather router (E21)", shard_scaling);
    ("obs-overhead", "observability overhead (E22)", obs_overhead);
    ("intersect", "intersection kernels (E23)", intersect);
    ("join-scaling", "set-containment join engine (E24)", join_scaling);
    ("ingest", "live ingest-while-query (E25)", ingest);
    ("recorder-overhead", "flight recorder always-on (E26)", recorder_overhead);
    ("racesan-overhead", "race sanitizer on/off (E27)", racesan_overhead);
  ]
