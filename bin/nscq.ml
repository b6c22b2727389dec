(* nscq — nested-set containment queries from the command line.

   Subcommands: generate, build, query, workload, stats, shard, serve, …

     nscq generate --kind wide-zipf --count 10000 -o data.ns
     nscq build -i data.ns -o data.tch
     nscq query -s data.tch '{USA, {UK, {A, motorbike}}}'
     nscq workload -s data.tch --cache 250
     nscq stats -s data.tch
     nscq shard build -i data.ns --shards 4 -o data.manifest
     nscq query -s data.manifest '{USA}'     # routed over the shards *)

(* Console output is this program's purpose, and executables have no
   interface files: R2/R5 are opted out explicitly rather than scoped
   away, so the rest of the rules (R1 above all) still apply. *)
[@@@lint.allow io mli]

open Cmdliner

module E = Containment.Engine
module Sem = Containment.Semantics
module IF = Invfile.Inverted_file
module L = Live.Live_store

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
    let oc = open_out p in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* --- shared arguments --- *)

(* Optional where the command also takes --connect, required elsewhere. *)
let store_opt =
  Arg.(
    opt (some string) None
    & info [ "s"; "store" ] ~docv:"PATH"
        ~doc:"The collection: a store file (its format is read from the \
              file's header), a live store directory, or a shard manifest.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Run the command on a running $(b,nscq serve) instead of \
              opening $(b,--store) in-process.")

let deadline_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-request deadline for $(b,--connect) and remote shards \
              (0 = none).")

(* Only commands that create stores name a format; every other command
   reads it from the store file's header. *)
let backend_arg =
  Arg.(
    value
    & opt (enum [ ("hash", `Hash); ("btree", `Btree); ("log", `Log) ]) `Hash
    & info [ "backend" ] ~docv:"KIND"
        ~doc:"Storage engine of the store to create: $(b,hash), $(b,btree), \
              or $(b,log) (crash-safe append-only).")

let cache_arg =
  Arg.(
    value
    & opt int 0
    & info [ "cache" ] ~docv:"N"
        ~doc:"Buffer the $(docv) most frequent inverted lists in memory \
              (the paper uses 250; 0 disables).")

(* One name table per engine enum, shared by the flags and the repl. *)
let algorithms =
  [ ("bottom-up", E.Bottom_up); ("top-down", E.Top_down);
    ("top-down-paper", E.Top_down_paper); ("naive", E.Naive_scan) ]

let embeddings =
  [ ("hom", Sem.Hom); ("iso", Sem.Iso); ("homeo", Sem.Homeo);
    ("homeo-full", Sem.Homeo_full) ]

let parse_join s =
  match String.lowercase_ascii s with
  | "containment" | "subset" -> Ok Sem.Containment
  | "equality" -> Ok Sem.Equality
  | "superset" -> Ok Sem.Superset
  | s when String.length s > 8 && String.sub s 0 8 = "overlap=" -> (
    match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
    | Some eps when eps >= 1 -> Ok (Sem.Overlap eps)
    | _ -> Error "overlap needs a positive integer, e.g. overlap=2")
  | s when String.length s > 11 && String.sub s 0 11 = "similarity=" -> (
    match float_of_string_opt (String.sub s 11 (String.length s - 11)) with
    | Some r when r > 0. && r <= 1. -> Ok (Sem.Similarity r)
    | _ -> Error "similarity needs a ratio in (0,1], e.g. similarity=0.5")
  | _ -> Error ("unknown join type " ^ s)

let algorithm_arg =
  Arg.(
    value
    & opt (enum algorithms) E.Bottom_up
    & info [ "algorithm" ] ~docv:"ALG"
        ~doc:"$(b,bottom-up), $(b,top-down), $(b,top-down-paper) (the \
              algorithm exactly as published), or $(b,naive).")

let join_arg =
  let parse s = Result.map_error (fun m -> `Msg m) (parse_join s) in
  Arg.(
    value
    & opt (conv (parse, Sem.pp_join)) Sem.Containment
    & info [ "join" ] ~docv:"JOIN"
        ~doc:"$(b,containment), $(b,equality), $(b,superset), \
              $(b,overlap=)$(i,ε), or $(b,similarity=)$(i,r).")

let embedding_arg =
  Arg.(
    value
    & opt (enum embeddings) Sem.Hom
    & info [ "embedding" ] ~docv:"SEM"
        ~doc:"$(b,hom) (default), $(b,iso), or $(b,homeo).")

let anywhere_arg =
  Arg.(
    value & flag
    & info [ "anywhere" ]
        ~doc:"Match the query at any internal node, not only record roots.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Re-check matches with the value-level oracle.")

let wildcards_arg =
  Arg.(
    value & flag
    & info [ "wildcards" ]
        ~doc:"Interpret trailing-* query leaves as atom-prefix patterns
              (containment join only).")

(* The engine configuration of query, join, trace and explain. *)
let engine_term =
  let make algorithm join embedding anywhere verify wildcards =
    {
      E.default with
      E.algorithm;
      join;
      embedding;
      scope = (if anywhere then E.Anywhere else E.Roots);
      verify;
      wildcards;
    }
  in
  Term.(
    const make $ algorithm_arg $ join_arg $ embedding_arg $ anywhere_arg
    $ verify_arg $ wildcards_arg)

let spill_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill" ] ~docv:"FILE"
        ~doc:"Run the bottom-up stack through an external-memory stack \
              backed by $(docv).")

let partial_arg =
  Arg.(
    value & flag
    & info [ "partial" ]
        ~doc:"Over a shard manifest: answer from the surviving shards (with \
              a warning per failure) instead of failing when a shard is \
              unreachable.")

let load_manifest path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "nscq: manifest '%s' does not exist\n" path;
    exit 1
  end;
  match Shard.Manifest.load path with
  | m -> m
  | exception Shard.Manifest.Corrupt msg ->
    Printf.eprintf "nscq: %s: %s\n" path msg;
    exit 1

(* Resolves --host to a numeric address up front so a typo is a one-line
   error, not a silent bind to loopback. *)
let resolve_host host =
  match Unix.inet_addr_of_string host with
  | _ -> host
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | exception Not_found ->
      Printf.eprintf "nscq: cannot resolve host '%s'\n" host;
      exit 1
    | { Unix.h_addr_list = [||]; _ } ->
      Printf.eprintf "nscq: cannot resolve host '%s'\n" host;
      exit 1
    | he -> Unix.string_of_inet_addr he.Unix.h_addr_list.(0))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log engine internals to stderr.")

let setup_logging verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let setup_engine inv ~cache =
  if cache > 0 then Containment.Collection.with_static_cache inv ~budget:cache

(* --- generate --- *)

let generate_cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("wide-uniform", `WU); ("wide-zipf", `WZ); ("deep-uniform", `DU);
               ("deep-zipf", `DZ); ("twitter", `TW); ("dblp", `DB) ])
          `WU
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"$(b,wide-uniform), $(b,wide-zipf), $(b,deep-uniform), \
                $(b,deep-zipf) (Table 3), $(b,twitter) (JSON lines), or \
                $(b,dblp) (XML).")
  in
  let count_arg =
    Arg.(value & opt int 1000 & info [ "n"; "count" ] ~docv:"N" ~doc:"Records to generate.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.") in
  let theta_arg =
    Arg.(value & opt float 0.7 & info [ "theta" ] ~docv:"θ" ~doc:"Zipf skew (0 < θ < 1).")
  in
  let labels_arg =
    Arg.(
      value & opt int 100_000
      & info [ "labels" ] ~docv:"N"
          ~doc:"Leaf-label domain size (the paper uses 10,000,000).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run kind count seed theta labels out =
    with_out out @@ fun oc ->
    let synthetic shape dist =
      let g =
        Datagen.Synthetic.make ~seed
          ~pool:(Datagen.Label_pool.create labels)
          ~params:(Datagen.Synthetic.params_of_shape shape)
          dist
      in
      Seq.iter
        (fun v -> output_string oc (Nested.Syntax.to_string v ^ "\n"))
        (Datagen.Synthetic.seq g count)
    in
    match kind with
    | `WU -> synthetic Datagen.Synthetic.Wide Datagen.Synthetic.Uniform
    | `WZ -> synthetic Datagen.Synthetic.Wide (Datagen.Synthetic.Zipfian theta)
    | `DU -> synthetic Datagen.Synthetic.Deep Datagen.Synthetic.Uniform
    | `DZ -> synthetic Datagen.Synthetic.Deep (Datagen.Synthetic.Zipfian theta)
    | `TW ->
      let g = Datagen.Twitter_sim.make ~seed ~theta () in
      for _ = 1 to count do
        output_string oc (Textformats.Json.to_string (Datagen.Twitter_sim.tweet_json g));
        output_char oc '\n'
      done
    | `DB ->
      let g = Datagen.Dblp_sim.make ~seed ~theta () in
      for _ = 1 to count do
        output_string oc (Textformats.Xml.to_string (Datagen.Dblp_sim.article_xml g));
        output_char oc '\n'
      done
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic collection (Sec. 5.1).")
    Term.(const run $ kind_arg $ count_arg $ seed_arg $ theta_arg $ labels_arg $ out_arg)

(* --- build --- *)

let input_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Input collection: nested-set literals, JSON lines, or XML \
              records (one per line).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("nested", `Nested); ("json", `Json); ("xml", `Xml) ]) `Nested
    & info [ "format" ] ~docv:"FMT" ~doc:"$(b,nested), $(b,json), or $(b,xml).")

let tokenize_arg =
  Arg.(value & flag & info [ "tokenize" ] ~doc:"Tokenize XML text into word atoms.")

let recfmt_arg =
  Arg.(
    value
    & opt (enum [ ("syntax", `Syntax); ("binary", `Binary) ]) `Syntax
    & info [ "record-format" ] ~docv:"FMT"
        ~doc:"Stored-record encoding: $(b,syntax) (readable) or $(b,binary)
              (dictionary-coded, ~3x smaller).")

let parse_collection ~format ~tokenize contents =
  match format with
  | `Nested -> Nested.Syntax.parse_many contents
  | `Json ->
    List.map Textformats.Json_nested.of_json (Textformats.Json.parse_many contents)
  | `Xml ->
    List.map (Textformats.Xml_nested.of_xml ~tokenize)
      (Textformats.Xml.parse_many contents)

let build_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Store file to create.")
  in
  let buckets_arg =
    Arg.(value & opt int 65536 & info [ "buckets" ] ~docv:"N" ~doc:"Hash store buckets.")
  in
  let live_arg =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:"Build a live (mutable) store: $(b,--output) names a \
                directory holding WAL-protected segments; records can then \
                be inserted and deleted online ($(b,nscq insert/delete)).")
  in
  let run input format tokenize output backend buckets record_format live =
    let values = parse_collection ~format ~tokenize (read_file input) in
    if live then begin
      let t =
        try L.create output
        with Invalid_argument m ->
          Printf.eprintf "nscq: %s\n" m;
          exit 1
      in
      Fun.protect ~finally:(fun () -> L.close t) @@ fun () ->
      List.iter (fun v -> ignore (L.insert t v)) values;
      ignore (L.flush t);
      Printf.printf "ingested %d record(s) into live store %s (%d segment(s))\n"
        (L.live_records t) output (L.segment_count t)
    end
    else
    let store =
      match backend with
      | `Hash -> Storage.Hash_store.create ~buckets output
      | `Btree -> Storage.Btree_store.create output
      | `Log -> Storage.Log_store.create output
    in
    let builder = Invfile.Builder.create ~record_format store in
    List.iter (fun v -> ignore (Invfile.Builder.add_value builder v)) values;
    let inv = Invfile.Builder.finish builder in
    Printf.printf "indexed %d records, %d atoms, %d internal nodes into %s\n"
      (IF.record_count inv) (IF.atom_count inv) (IF.node_count inv) output;
    IF.close inv
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build the inverted file for a collection.")
    Term.(
      const run $ input_arg $ format_arg $ tokenize_arg $ output_arg $ backend_arg
      $ buckets_arg $ recfmt_arg $ live_arg)


(* --- the target a command runs on --- *)

type target =
  | Plain of IF.t
  | Live of L.t
  | Sharded of Shard.Router.t
  | Remote of { client : Server.Client.t; deadline_ms : int }

(* A request the server answered with an error frame. *)
exception Refused of Server.Wire.error_code * string

let remote = function
  | Ok x -> x
  | Error (code, message) -> raise (Refused (code, message))

(* What a --store path names, decided by the path alone. *)
let classify path =
  if Shard.Manifest.is_manifest_file path then `Manifest
  else if L.is_live_dir path then `Live
  else `Store

let connect_client endpoint =
  let host, port =
    match String.rindex_opt endpoint ':' with
    | Some i -> (
      let host = String.sub endpoint 0 i in
      let port_s = String.sub endpoint (i + 1) (String.length endpoint - i - 1) in
      match int_of_string_opt port_s with
      | Some p when p > 0 && p < 65536 -> ((if host = "" then "127.0.0.1" else host), p)
      | _ ->
        prerr_endline "nscq: --connect expects HOST:PORT";
        exit 1)
    | None ->
      prerr_endline "nscq: --connect expects HOST:PORT";
      exit 1
  in
  try Server.Client.connect ~host ~port ()
  with
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "nscq: cannot connect to %s:%d: %s\n" host port
      (Unix.error_message e);
    exit 1
  | Server.Client.Handshake_failed m ->
    Printf.eprintf "nscq: handshake with %s:%d failed: %s\n" host port m;
    exit 1

let router_config ?(engine = E.default) ?(deadline_ms = 0) ~cache ~partial () =
  {
    Shard.Router.default_config with
    Shard.Router.engine;
    fail_mode = (if partial then Shard.Router.Partial else Shard.Router.Fail_fast);
    remote_deadline_ms = deadline_ms;
    cache_budget = cache;
  }

(* Opens what --connect or --store names, applies --cache and --partial,
   runs [f] and closes the target. Path kinds outside [accept] are
   refused before anything is opened. *)
let with_target ?(accept = [ `Store; `Live; `Manifest ]) ?connect
    ?(deadline_ms = 0) ?(cache = 0) ?(partial = false) ?(engine = E.default)
    ?(lenient = false) store f =
  let target, close =
    match (connect, store) with
    | Some endpoint, _ ->
      let client = connect_client endpoint in
      (Remote { client; deadline_ms }, fun () -> Server.Client.close client)
    | None, None ->
      prerr_endline "nscq: either --store or --connect is required";
      exit 1
    | None, Some path -> (
      let kind = classify path in
      if not (List.exists (fun k -> k = kind) accept) then begin
        Printf.eprintf "nscq: '%s' %s\n" path
          (match kind with
          | `Live ->
            "is a live store; this command only works on built stores \
             (query/join/trace/explain/stats/check/repair/export/compact \
             and insert/delete/flush handle live stores)"
          | `Manifest when List.exists (fun k -> k = `Store) accept ->
            "is a shard manifest; this command only works on one store \
             (query/join/trace/explain/stats/serve route over shards)"
          | `Store | `Manifest -> "is not a live store directory");
        exit 1
      end;
      match kind with
      | `Manifest ->
        let config = router_config ~engine ~deadline_ms ~cache ~partial () in
        let r = Shard.Router.open_manifest ~config (load_manifest path) in
        (Sharded r, fun () -> Shard.Router.close r)
      | `Live ->
        let t = L.open_store path in
        (Live t, fun () -> L.close t)
      | `Store ->
        let inv = IF.open_store ~lenient (Storage.Store_file.open_existing path) in
        setup_engine inv ~cache;
        (Plain inv, fun () -> IF.close inv))
  in
  Fun.protect ~finally:close (fun () -> f target)

(* A verb that takes only store files. *)
let with_plain ?cache path f =
  with_target ~accept:[ `Store ] ?cache (Some path) @@ function
  | Plain inv -> f inv
  | Live _ | Sharded _ | Remote _ -> assert false

(* --- printing --- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

(* The first [limit] items through [pp], then how many were left out
   ([what k] names those [k]). *)
let print_records ?(what = fun _ -> "") ~limit pp items =
  List.iteri (fun i x -> if i < limit then pp x) items;
  let n = List.length items in
  if n > limit then
    Printf.printf "  … and %d more%s (raise --limit)\n" (n - limit)
      (what (n - limit))

(* One result record; [absent] follows the id when its value is not at
   hand. *)
let print_record ?(absent = "") id = function
  | Some v -> Format.printf "  #%d: %a@." id Nested.Value.pp v
  | None -> Printf.printf "  #%d%s\n" id absent

let warn_dropped what =
  List.iter (fun (i, reason) ->
      Printf.eprintf "nscq: warning: shard %d dropped from %s: %s\n" i what
        reason)

let ids_of_payload payload =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' payload)

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"Query in nested-set literal syntax.")

(* --- query --- *)

let query_cmd =
  let limit_arg =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) results.")
  in
  let run store connect deadline_ms cache engine spill partial verbose qs limit =
    setup_logging verbose;
    let config = { engine with E.spill_to = spill } in
    with_target ?connect ~deadline_ms ~cache ~partial ~engine:config store
    @@ function
    | Remote { client; deadline_ms } ->
      let payload = remote (Server.Client.query client ~deadline_ms qs) in
      if String.length (String.trim qs) > 0 && (String.trim qs).[0] = '{' then begin
        (* literal query: the payload is the matching record ids *)
        let ids = ids_of_payload payload in
        Printf.printf "%d matching record(s)\n" (List.length ids);
        print_records ~limit (Printf.printf "  #%s\n") ids
      end
      else begin
        print_string payload;
        let n = String.length payload in
        if n > 0 && payload.[n - 1] <> '\n' then print_newline ()
      end
    | Sharded r ->
      let q = Nested.Syntax.of_string qs in
      let o, dt = timed (fun () -> Shard.Router.query r q) in
      warn_dropped "answer" o.Shard.Router.warnings;
      Printf.printf
        "%d matching record(s) in %.3f ms (%d shard(s) queried, %d pruned)\n"
        (List.length o.Shard.Router.records)
        dt o.Shard.Router.shards_queried o.Shard.Router.shards_skipped;
      print_records ~limit
        (fun id ->
          print_record ~absent:" (remote shard)" id (Shard.Router.record_value r id))
        o.Shard.Router.records
    | Live t ->
      (* across the sealed segments and the memtable, with the same
         answers as a from-scratch rebuild *)
      let q = Nested.Syntax.of_string qs in
      let records, dt = timed (fun () -> L.query ~config t q) in
      Printf.printf "%d matching record(s) in %.3f ms (%d segment(s) + memtable)\n"
        (List.length records) dt (L.segment_count t);
      print_records ~limit (fun id -> print_record id (L.record_value t id)) records
    | Plain inv ->
      let q = Nested.Syntax.of_string qs in
      let r, dt = timed (fun () -> E.query ~config inv q) in
      Printf.printf "%d matching record(s) in %.3f ms\n" (List.length r.E.records) dt;
      print_records ~limit
        (fun id -> print_record id (Some (IF.record_value inv id)))
        r.E.records
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run one containment query against a store, a live store, a \
             shard manifest, or a running server (with --connect).")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ cache_arg
      $ engine_term $ spill_arg $ partial_arg $ verbose_arg $ query_arg
      $ limit_arg)

(* --- join --- *)

(* `nscq query` for a whole outer collection at once: a local store runs
   the prefix-tree join engine in-process, a manifest scatter-gathers
   through the router, and --connect ships the outer collection under
   the wire Join verb. The outer file is parsed with the server's own
   line parser so a collection accepted locally is accepted remotely,
   byte for byte. *)
let join_cmd =
  let queries_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "q"; "queries" ] ~docv:"FILE"
          ~doc:"Outer collection: one nested-set literal per line.")
  in
  let limit_arg =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:"Print at most $(docv) outer-query result lines.")
  in
  let max_depth_arg =
    Arg.(
      value & opt int Join.Engine.default.Join.Engine.max_depth
      & info [ "max-depth" ] ~docv:"D"
          ~doc:"Adaptive depth cap: stop expanding prefix-tree nodes below \
                depth $(docv) (0 = unbounded).")
  in
  let cut_candidates_arg =
    Arg.(
      value & opt int Join.Engine.default.Join.Engine.cut_candidates
      & info [ "cut-candidates" ] ~docv:"N"
          ~doc:"Stop refining a prefix-tree node once its candidate list \
                has at most $(docv) records, finishing with per-record \
                verification.")
  in
  let cut_fanout_arg =
    Arg.(
      value & opt int Join.Engine.default.Join.Engine.cut_fanout
      & info [ "cut-fanout" ] ~docv:"N"
          ~doc:"Stop refining a prefix-tree node shared by fewer than \
                $(docv) outer queries.")
  in
  let run store connect deadline_ms cache engine partial max_depth
      cut_candidates cut_fanout verbose queries_file limit =
    setup_logging verbose;
    let text = read_file queries_file in
    let values =
      match Server.Batcher.parse_join text with
      | Ok (Server.Batcher.Join values) -> values
      | Ok _ ->
        prerr_endline "nscq: internal: unexpected parse outcome";
        exit 1
      | Error message ->
        Printf.eprintf "nscq: %s: %s\n" queries_file message;
        exit 1
    in
    let n_outer = List.length values in
    let queries n = if n = 1 then "query" else "queries" in
    let print_summary pairs dt where =
      Printf.printf "%d pair(s) across %d outer %s in %.3f ms%s\n" pairs n_outer
        (queries n_outer) dt where
    in
    let print_groups groups =
      print_records ~limit
        ~what:(fun k -> " outer " ^ queries k)
        (fun (qi, ids) ->
          Printf.printf "  q%d: %s\n" qi
            (if ids = [] then "-"
             else String.concat " " (List.map string_of_int ids)))
        (List.mapi (fun qi ids -> (qi, ids)) groups)
    in
    let config = { Join.Engine.engine; max_depth; cut_candidates; cut_fanout } in
    with_target ?connect ~deadline_ms ~cache ~partial ~engine store @@ function
    | Remote { client; deadline_ms } -> (
      let payload, dt =
        timed (fun () -> remote (Server.Client.join client ~deadline_ms text))
      in
      match Server.Wire.split_join payload with
      | Ok groups ->
        print_summary
          (List.fold_left (fun acc g -> acc + List.length g) 0 groups)
          dt "";
        print_groups groups
      | Error m ->
        Printf.eprintf "nscq: malformed join payload: %s\n" m;
        exit 1)
    | Sharded r ->
      let o, dt = timed (fun () -> Shard.Router.join r values) in
      warn_dropped "join" o.Shard.Router.join_warnings;
      print_summary (List.length o.Shard.Router.pairs) dt
        (Printf.sprintf " (%d shard(s) queried, %d pruned)"
           o.Shard.Router.join_shards_queried o.Shard.Router.join_shards_skipped);
      print_groups (Join.Engine.group ~outer:n_outer o.Shard.Router.pairs)
    | Live t ->
      let pairs, dt = timed (fun () -> L.join ~config t values) in
      print_summary (List.length pairs) dt
        (Printf.sprintf " (%d segment(s) + memtable)" (L.segment_count t));
      print_groups (Join.Engine.group ~outer:n_outer pairs)
    | Plain inv ->
      let r, dt = timed (fun () -> Join.Engine.join ~config inv values) in
      let s = r.Join.Engine.stats in
      print_summary s.Join.Engine.pairs dt "";
      Printf.printf
        "  prefix tree: %d node(s), %d expanded, %d intersection(s) shared \
         / %d recomputed, %d adaptive cut(s), %d candidate(s) checked, %d \
         preflight-rejected, %d fallback %s\n"
        s.Join.Engine.tree_nodes s.Join.Engine.nodes_expanded
        s.Join.Engine.intersections_shared
        s.Join.Engine.intersections_recomputed s.Join.Engine.limit_cuts
        s.Join.Engine.candidates_checked s.Join.Engine.preflight_rejected
        s.Join.Engine.fallback
        (queries s.Join.Engine.fallback);
      print_groups (Join.Engine.group ~outer:n_outer r.Join.Engine.pairs)
  in
  Cmd.v
    (Cmd.info "join"
       ~doc:"Set-containment join: match every query of an outer collection \
             against a store, a live store, a shard manifest, or a running \
             server (with --connect) in one pass over a shared prefix tree.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ cache_arg
      $ engine_term $ partial_arg $ max_depth_arg $ cut_candidates_arg
      $ cut_fanout_arg $ verbose_arg $ queries_arg $ limit_arg)

(* --- trace --- *)

let trace_cmd =
  let run store connect deadline_ms cache engine partial verbose qs =
    setup_logging verbose;
    let print_span id span =
      Printf.printf "trace %08x\n" id;
      print_string (Obs.Trace.render span)
    in
    let local count =
      let q = Nested.Syntax.of_string qs in
      let trace = Obs.Trace.create "query" in
      Printf.printf "%d matching record(s)\n" (count q trace);
      print_span (Obs.Trace.id trace) (Obs.Trace.finish trace)
    in
    with_target ?connect ~deadline_ms ~cache ~partial ~engine store @@ function
    | Remote { client; deadline_ms } -> (
      let result, spans =
        Server.Wire.split_traced
          (remote (Server.Client.trace client ~deadline_ms qs))
      in
      Printf.printf "%d matching record(s)\n"
        (List.length (ids_of_payload result));
      match Obs.Trace.of_wire spans with
      | Some (id, span) -> print_span id span
      | None ->
        prerr_endline "nscq: the server's reply carried no span tree";
        exit 1)
    | Sharded r ->
      local (fun q trace ->
          let o = Shard.Router.query ~trace r q in
          warn_dropped "answer" o.Shard.Router.warnings;
          List.length o.Shard.Router.records)
    | Live t ->
      local (fun q trace -> List.length (L.query ~config:engine ~trace t q))
    | Plain inv ->
      local (fun q trace ->
          List.length (E.query ~config:engine ~trace inv q).E.records)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one containment query and print its span tree — per-phase \
             timings (minimize, prefilter, retrieval per atom, merge, \
             verify) with I/O deltas, per segment over a live store, per \
             shard over a manifest, and server-side with --connect.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ cache_arg
      $ engine_term $ partial_arg $ verbose_arg $ query_arg)

(* --- explain --- *)

(* Plan-and-profile: unlike `trace` (wall-clock spans), `explain` answers
   the planner questions — atom order with posting stats, estimated vs
   actual candidates per phase — against any target: a plain store, a
   live directory (per-segment sub-plans), a shard manifest (per-shard
   sub-plans), or a running server over the wire Explain verb. *)
let explain_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the plan as JSON instead of text.")
  in
  let run store connect deadline_ms cache engine partial json verbose qs =
    setup_logging verbose;
    let print p =
      if json then print_endline (Obs.Explain.to_json p)
      else print_string (Obs.Explain.render p)
    in
    let q () = Nested.Syntax.of_string qs in
    with_target ?connect ~deadline_ms ~cache ~partial ~engine store @@ function
    | Remote { client; deadline_ms } -> (
      match
        Obs.Explain.of_wire (remote (Server.Client.explain client ~deadline_ms qs))
      with
      | Some p -> print p
      | None ->
        prerr_endline "nscq: the server's reply carried no plan";
        exit 1)
    | Sharded r -> print (Shard.Router.explain r (q ()))
    | Live t -> print (L.explain ~config:engine t (q ()))
    | Plain inv -> print (E.explain_profile ~config:engine inv (q ()))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Plan and profile one containment query: the planned atom \
             order with posting-list stats, and estimated vs actual \
             candidate counts per phase — per segment over a live store, \
             per shard over a manifest, server-side with --connect.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ cache_arg
      $ engine_term $ partial_arg $ json_arg $ verbose_arg $ query_arg)

(* --- workload --- *)

let workload_cmd =
  let count_arg =
    Arg.(value & opt int 100 & info [ "n"; "count" ] ~docv:"N" ~doc:"Workload size (paper: 100).")
  in
  let seed_arg = Arg.(value & opt int 271 & info [ "seed" ] ~docv:"S" ~doc:"Selection seed.") in
  let run store cache algorithm count seed =
    with_plain ~cache store @@ fun inv ->
    let queries =
      Datagen.Workload.values (Datagen.Workload.benchmark_queries ~seed ~count inv)
    in
    let stats = E.run_workload ~config:{ E.default with E.algorithm } inv queries in
    Format.printf "%a@." E.pp_workload_stats stats
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Time the paper's benchmark workload (Sec. 5.1) against a store.")
    Term.(
      const run $ Arg.required store_opt $ cache_arg $ algorithm_arg $ count_arg
      $ seed_arg)

(* --- check (integrity) --- *)

let check_cmd =
  let print_problems ~pp ~repair problems =
    List.iteri
      (fun i p ->
        if i < 20 then pp p
        else if i = 20 then
          Printf.printf "... (%d more)\n" (List.length problems - 20))
      problems;
    Printf.printf "%d problem(s); run 'nscq repair' to rebuild %s\n"
      (List.length problems) repair;
    exit 1
  in
  let run store =
    with_target ~accept:[ `Store; `Live ] ~lenient:true (Some store) @@ function
    | Live t -> (
      match L.verify t with
      | [] ->
        Printf.printf
          "ok: %d live record(s) across %d segment(s) + memtable, %d \
           tombstone(s) — consistent\n"
          (L.live_records t) (L.segment_count t) (L.tombstone_count t)
      | problems ->
        print_problems problems ~repair:"the damaged segments"
          ~pp:(fun (what, detail) -> Printf.printf "PROBLEM %s: %s\n" what detail))
    | Plain inv -> (
      let recoveries = Storage.Io_stats.recoveries (IF.store inv).Storage.Kv.stats in
      if recoveries > 0 then
        Printf.printf "note: %d recovery action(s) ran while opening the store\n"
          recoveries;
      match E.verify_store inv with
      | [] ->
        Printf.printf "ok: %d records, %d atoms, %d nodes — consistent\n"
          (IF.record_count inv) (IF.atom_count inv) (IF.node_count inv)
      | problems ->
        print_problems problems ~repair:"the index from the records"
          ~pp:(Format.printf "PROBLEM %a@." Invfile.Integrity.pp_problem))
    | Sharded _ | Remote _ -> assert false
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify a store's integrity (index vs stored records).")
    Term.(const run $ Arg.required store_opt)

(* --- repair --- *)

let repair_cmd =
  let dry_arg =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Report what repair would do without rewriting anything.")
  in
  let run store dry =
    with_target ~accept:[ `Store; `Live ] ~lenient:true (Some store) @@ function
    | Live t when dry -> (
      match L.verify t with
      | [] -> print_endline "live store is consistent; nothing to repair"
      | problems ->
        List.iter
          (fun (what, detail) -> Printf.printf "WOULD FIX %s: %s\n" what detail)
          problems;
        exit 1)
    | Live t -> (
      (match L.repair t with
      | [] -> print_endline "live store is consistent; nothing to repair"
      | actions -> List.iter print_endline actions);
      match L.verify t with
      | [] -> ()
      | problems ->
        List.iter
          (fun (what, detail) -> Printf.printf "STILL BROKEN %s: %s\n" what detail)
          problems;
        exit 1)
    | Plain inv when dry -> (
      match E.verify_store inv with
      | [] -> print_endline "store is consistent; nothing to repair"
      | problems ->
        List.iter
          (fun p -> Format.printf "WOULD FIX %a@." Invfile.Integrity.pp_problem p)
          problems;
        exit 1)
    | Plain inv ->
      let report = E.repair inv in
      Format.printf "%a" E.pp_repair_report report;
      if report.E.problems_after <> [] then exit 1
    | Sharded _ | Remote _ -> assert false
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Recover a store: finish pending journal rollbacks and rebuild \
             the index from the stored records if it is inconsistent.")
    Term.(const run $ Arg.required store_opt $ dry_arg)

(* --- export --- *)

let export_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run store out =
    with_target ~accept:[ `Store; `Live ] (Some store) @@ fun target ->
    with_out out @@ fun oc ->
    let print v =
      output_string oc (Nested.Syntax.to_string v);
      output_char oc '\n'
    in
    match target with
    | Live t -> L.fold_live t ~init:() ~f:(fun () _ v -> print v)
    | Plain inv -> IF.iter_records inv (fun _ v -> print v)
    | Sharded _ | Remote _ -> assert false
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the live records back out as nested-set literals.")
    Term.(const run $ Arg.required store_opt $ out_arg)

(* --- merge --- *)

let merge_cmd =
  let src_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"PATH"
          ~doc:"Source store to append (read-only; its format is read from \
                its header).")
  in
  let run store src =
    with_plain store @@ fun dst ->
    with_plain src @@ fun src ->
    let before = IF.record_count dst in
    Invfile.Merger.append ~dst ~src;
    Printf.printf "merged: %d + %d live record(s) -> %d\n" before
      (IF.record_count src) (IF.record_count dst)
  in
  Cmd.v
    (Cmd.info "merge" ~doc:"Append another collection's records to a store.")
    Term.(const run $ Arg.required store_opt $ src_arg)

(* --- compact --- *)

let compact_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Over a live store: merge $(i,every) segment into one \
                (default: one leveled step — the cheapest adjacent pair).")
  in
  let run store all =
    with_target ~accept:[ `Store; `Live ] ~lenient:true (Some store) @@ function
    | Live t -> (
      match L.compact ~all t with
      | Some n ->
        Printf.printf "compacted %d segment(s) -> %d remaining, %d tombstone(s)\n"
          n (L.segment_count t) (L.tombstone_count t)
      | None -> print_endline "nothing to compact")
    | Plain inv -> (
      let kv = IF.store inv in
      match Storage.Store_file.kind store with
      | Storage.Store_file.Hash ->
        let before = Storage.Hash_store.file_size kv in
        Storage.Hash_store.optimize kv;
        Printf.printf "optimized: %d -> %d bytes\n" before
          (Storage.Hash_store.file_size kv)
      | Storage.Store_file.Log ->
        let dead = Storage.Log_store.dead_bytes kv in
        Storage.Log_store.compact kv;
        Printf.printf "compacted: reclaimed %d dead byte(s)\n" dead
      | Storage.Store_file.Btree ->
        prerr_endline "compact: not supported for the btree backend";
        exit 1)
    | Sharded _ | Remote _ -> assert false
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Reclaim dead space: merge a live store's segments (purging \
             tombstones), or rewrite a hash/log store file.")
    Term.(const run $ Arg.required store_opt $ all_arg)

(* --- insert / delete / flush (live stores) --- *)

let insert_cmd =
  let value_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RECORD" ~doc:"The record, in nested-set literal syntax.")
  in
  let run store connect deadline_ms vs =
    with_target ~accept:[ `Live ] ?connect ~deadline_ms store @@ function
    | Remote { client; deadline_ms } ->
      Printf.printf "record %d inserted\n"
        (remote (Server.Client.insert client ~deadline_ms vs))
    | Live t -> (
      match Nested.Syntax.of_string_opt vs with
      | None ->
        prerr_endline "nscq: parse error: expected a nested-set literal";
        exit 1
      | Some v -> (
        match L.insert t v with
        | id -> Printf.printf "record %d inserted\n" id
        | exception Invalid_argument m ->
          Printf.eprintf "nscq: %s\n" m;
          exit 1))
    | Plain _ | Sharded _ -> assert false
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"Insert one record into a live store (WAL-logged, durable on \
             return), in-process or on a running server with --connect.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ value_arg)

let delete_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"ID" ~doc:"Global record id to delete.")
  in
  let run store connect deadline_ms id =
    let deleted =
      with_target ~accept:[ `Live ] ?connect ~deadline_ms store @@ function
      | Remote { client; deadline_ms } ->
        remote (Server.Client.delete client ~deadline_ms id)
      | Live t -> L.delete t id
      | Plain _ | Sharded _ -> assert false
    in
    if deleted then Printf.printf "record %d deleted\n" id
    else begin
      Printf.printf "no such live record %d\n" id;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "delete"
       ~doc:"Delete one record from a live store by global id, in-process \
             or on a running server with --connect.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ deadline_arg $ id_arg)

let flush_cmd =
  let run store =
    with_target ~accept:[ `Live ] (Some store) @@ function
    | Live t ->
      let sealed = L.flush t in
      Printf.printf "sealed %d record(s); %d segment(s), %d live record(s)\n"
        sealed (L.segment_count t) (L.live_records t)
    | Plain _ | Sharded _ | Remote _ -> assert false
  in
  Cmd.v
    (Cmd.info "flush"
       ~doc:"Seal a live store's memtable into a new segment and rotate \
             the WAL (offline admin; a serving store flushes on its own).")
    Term.(const run $ Arg.required store_opt)

(* --- sql (one-shot NSCQL) --- *)

let sql_cmd =
  let stmt_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STATEMENT"
          ~doc:"An NSCQL statement, e.g. 'COUNT CONTAINS {a, {b}} UNDER homeo'.")
  in
  let run store cache verbose stmt =
    setup_logging verbose;
    with_plain ~cache store @@ fun inv ->
    match Containment.Nscql.run inv stmt with
    | Ok outcome ->
      Format.printf "%a" (Containment.Nscql.pp_outcome ~collection:inv) outcome
    | Error m ->
      prerr_endline m;
      exit 1
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run one NSCQL statement against a store.")
    Term.(const run $ Arg.required store_opt $ cache_arg $ verbose_arg $ stmt_arg)

(* --- repl --- *)

let repl_cmd =
  let run store cache =
    with_plain ~cache store @@ fun inv ->
    let config =
      ref { E.default with E.verify = false }
    in
    let print_help () =
      print_string
        "Enter a query in nested-set syntax, e.g. {USA, {UK, {A, motorbike}}},\n\
         or an NSCQL statement, e.g. COUNT CONTAINS {gatk} UNDER homeo\n\
         (FIND | COUNT | EXPLAIN | WITNESS, CONTAINS | EQUALS | WITHIN |\n\
         OVERLAPS .. BY n | SIMILAR TO .. AT r, INSERT v, DELETE id, STATS)\n\
         Commands:\n\
         \t.algorithm bottom-up|top-down|top-down-paper|naive\n\
         \t.join containment|equality|superset|overlap=N|similarity=R\n\
         \t.embedding hom|iso|homeo|homeo-full\n\
         \t.scope roots|anywhere     .verify on|off\n\
         \t.explain QUERY            plan + est-vs-actual phase profile\n\
         \t.witness QUERY            show one embedding per match\n\
         \t.add RECORD               insert a record incrementally\n\
         \t.delete ID                tombstone a record\n\
         \t.config  .stats  .help  .quit\n"
    in
    let run_nscql line =
      match Containment.Nscql.run inv line with
      | Ok outcome ->
        Format.printf "%a" (Containment.Nscql.pp_outcome ~collection:inv) outcome
      | Error m -> print_endline m
    in
    let run_query qs =
      match Nested.Syntax.of_string_opt qs with
      | None -> print_endline "parse error: expected a nested-set literal"
      | Some q -> (
        match E.query ~config:!config inv q with
        | exception Sem.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
        | exception Invalid_argument msg -> Printf.printf "invalid: %s\n" msg
        | r ->
          Printf.printf "%d matching record(s)\n" (List.length r.E.records);
          List.iteri
            (fun i id ->
              if i < 5 then
                Format.printf "  #%d: %a@." id Nested.Value.pp (IF.record_value inv id))
            r.E.records;
          if List.length r.E.records > 5 then
            Printf.printf "  … and %d more\n" (List.length r.E.records - 5))
    in
    let dot_command line =
      let cmd, arg =
        match String.index_opt line ' ' with
        | Some i ->
          ( String.sub line 0 i,
            String.trim (String.sub line i (String.length line - i)) )
        | None -> (line, "")
      in
      match cmd with
      | ".help" -> print_help ()
      | ".quit" | ".exit" -> raise Exit
      | ".config" ->
        Format.printf "algorithm=%s join=%a embedding=%a scope=%s verify=%b@."
          (List.find_map
             (fun (name, a) -> if a = !config.E.algorithm then Some name else None)
             algorithms
          |> Option.value ~default:"signature-scan")
          Sem.pp_join !config.E.join Sem.pp_embedding !config.E.embedding
          (match !config.E.scope with E.Roots -> "roots" | E.Anywhere -> "anywhere")
          !config.E.verify
      | ".stats" -> Format.printf "%a@." Invfile.Stats.pp (Invfile.Stats.compute inv)
      | ".algorithm" -> (
        match List.assoc_opt arg algorithms with
        | Some algorithm -> config := { !config with E.algorithm }
        | None -> print_endline "unknown algorithm")
      | ".join" -> (
        match parse_join arg with
        | Ok join -> config := { !config with E.join }
        | Error _ -> print_endline "unknown join type")
      | ".embedding" -> (
        match List.assoc_opt arg embeddings with
        | Some embedding -> config := { !config with E.embedding }
        | None -> print_endline "unknown embedding")
      | ".scope" -> (
        match arg with
        | "roots" -> config := { !config with E.scope = E.Roots }
        | "anywhere" -> config := { !config with E.scope = E.Anywhere }
        | _ -> print_endline "roots or anywhere")
      | ".verify" -> config := { !config with E.verify = arg = "on" }
      | ".explain" -> (
        match Nested.Syntax.of_string_opt arg with
        | Some q ->
          print_string
            (Obs.Explain.render (E.explain_profile ~config:!config inv q))
        | None -> print_endline "parse error")
      | ".witness" -> (
        match Nested.Syntax.of_string_opt arg with
        | None -> print_endline "parse error"
        | Some q ->
          let ws = E.witnesses ~config:!config inv q in
          if ws = [] then print_endline "no matches"
          else
            List.iteri
              (fun i (root, w) ->
                if i < 3 then begin
                  Printf.printf "match at node %d:\n" root;
                  List.iter
                    (fun (path, id) ->
                      Format.printf "  %-12s -> node %d = %a@." path id
                        Nested.Value.pp (IF.subtree_value inv id))
                    w
                end)
              ws)
      | ".add" -> (
        match Nested.Syntax.of_string_opt arg with
        | Some v when Nested.Value.is_set v ->
          Printf.printf "record %d added\n" (Invfile.Updater.add_value inv v)
        | _ -> print_endline "parse error: expected a set value")
      | ".delete" -> (
        match int_of_string_opt arg with
        | Some id ->
          if Invfile.Updater.delete_record inv id then print_endline "deleted"
          else print_endline "no such live record"
        | None -> print_endline "expected a record id")
      | _ -> Printf.printf "unknown command %s (try .help)\n" cmd
    in
    Printf.printf "nscq repl — %d records. Type .help for commands, .quit to leave.\n"
      (IF.record_count inv);
    (try
       while true do
         print_string "nscq> ";
         flush stdout;
         match input_line stdin with
         | exception End_of_file -> raise Exit
         | "" -> ()
         | line when line.[0] = '.' -> dot_command (String.trim line)
         | line when line.[0] = '{' || line.[0] = '"' -> run_query line
         | line -> run_nscql line
       done
     with Exit -> ());
    print_endline "bye"
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query shell over a store.")
    Term.(const run $ Arg.required store_opt $ cache_arg)

(* --- flight --- *)

(* Decode a flight-recorder dump — written by `nscq serve` on SIGUSR1 or
   automatically next to a slow-query line — into one merged timeline. *)
let flight_cmd =
  let dump_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"A flight-recorder dump ($(b,nscq serve --flight) path; \
                  written on SIGUSR1 or on slow queries).")
    in
    let json_arg =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Emit the timeline as JSON instead of text.")
    in
    let run json file =
      match Obs.Recorder.read_dump file with
      | names, events ->
        if json then print_endline (Obs.Recorder.render_json ~names events)
        else print_string (Obs.Recorder.render ~names events)
      | exception Sys_error m ->
        Printf.eprintf "nscq: cannot read %s: %s\n" file m;
        exit 1
      | exception Obs.Recorder.Corrupt m ->
        Printf.eprintf "nscq: corrupt flight dump %s: %s\n" file m;
        exit 1
    in
    Cmd.v
      (Cmd.info "dump"
         ~doc:"Decode a flight-recorder dump file into one timeline \
               merged across the server's worker domains.")
      Term.(const run $ json_arg $ file_arg)
  in
  Cmd.group
    (Cmd.info "flight"
       ~doc:"Inspect the always-on flight recorder: decode the binary \
             event-ring dumps a server writes on SIGUSR1 or alongside \
             slow-query log lines.")
    [ dump_cmd ]

(* --- serve --- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 7411
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Interface to bind.")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains, one store handle + cache each (0 = \
                default: NSCQ_DOMAINS or the host's core count - 1).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission queue bound; requests beyond it are shed with \
                an $(i,overloaded) error instead of queueing unboundedly.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Coalesce up to $(docv) compatible queued queries into one \
                batch that looks each distinct atom up once.")
  in
  let stats_interval_arg =
    Arg.(
      value & opt float 10.
      & info [ "stats-interval" ] ~docv:"SECONDS"
          ~doc:"Period of the stats log line (0 disables).")
  in
  let slow_query_arg =
    Arg.(
      value & opt float 0.
      & info [ "slow-query-ms" ] ~docv:"MS"
          ~doc:"Log one structured line (query digest, phase breakdown, \
                I/O deltas) for every request slower than $(docv) \
                milliseconds from admission to reply (0 disables).")
  in
  let flight_arg =
    Arg.(
      value
      & opt string "nscq-flight.bin"
      & info [ "flight" ] ~docv:"PATH"
          ~doc:"Where flight-recorder dumps land: SIGUSR1 writes one on \
                demand, and any slow-query log line triggers one \
                automatically (rate-limited). Decode with $(b,nscq \
                flight dump).")
  in
  let no_flight_arg =
    Arg.(
      value & flag
      & info [ "no-flight" ]
          ~doc:"Disable the always-on flight recorder entirely.")
  in
  let run store cache port host domains queue_cap max_batch
      stats_interval slow_query_ms flight no_flight partial verbose =
    setup_logging verbose;
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
    let host = resolve_host host in
    let store =
      match store with
      | Some s -> s
      | None ->
        prerr_endline "nscq: --store is required";
        exit 1
    in
    (* the flight recorder is on for the server's whole life: per-event
       cost is one atomic fetch-and-add plus a 16-byte ring write, cheap
       enough to leave running so tail-latency incidents are always
       attributable after the fact *)
    let flight = if no_flight then None else Some flight in
    if flight <> None then Obs.Recorder.enable ();
    let domains =
      if domains > 0 then domains else Containment.Parallel.default_domains ()
    in
    let cfg =
      {
        Server.Service.default_config with
        Server.Service.host;
        port;
        domains;
        queue_cap;
        max_batch;
        cache_budget = cache;
        stats_interval_s = stats_interval;
        slow_query_ms;
        flight_path = flight;
      }
    in
    (* probe up front either way: fail fast (and with the one-line error)
       before binding the port, and report the collection size *)
    let records, described, start, cleanup =
      match classify store with
      | `Store ->
        let open_handle () =
          IF.open_store (Storage.Store_file.open_existing store)
        in
        let probe = open_handle () in
        let records = IF.record_count probe in
        IF.close probe;
        ( records,
          store,
          (fun () -> Server.Service.start cfg ~open_handle),
          ignore )
      | `Live ->
        (* one shared handle across every worker (the store serializes
           internally); the server accepts writes, so compaction runs in
           the background and NSCQL INSERT/DELETE are admitted *)
        let t = L.open_store ~config:{ L.default with L.auto_compact = true } store in
        ( L.live_records t,
          Printf.sprintf "%s (live, %d segment(s))" store (L.segment_count t),
          (fun () ->
            Server.Service.start_with
              { cfg with Server.Service.writable = true }
              ~open_backend:(fun () -> Server.Dispatch.live_backend ~store:t ())),
          fun () -> L.close t )
      | `Manifest ->
        let m = load_manifest store in
        let rconfig = router_config ~cache ~partial () in
        Shard.Router.close (Shard.Router.open_manifest ~config:rconfig m);
        ( Shard.Manifest.live_records m,
          Printf.sprintf "%s (%d shard(s))" store
            (Array.length m.Shard.Manifest.shards),
          (fun () ->
            Server.Service.start_with cfg
              ~open_backend:(Shard.Router.dispatch_backend ~config:rconfig m)),
          ignore )
    in
    let srv =
      try start ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "nscq: cannot bind %s:%d: %s\n" host port
          (Unix.error_message e);
        exit 1
    in
    Printf.printf
      "nscq serve: %d record(s) from %s; listening on %s:%d (%d domain(s), \
       queue cap %d, batch <= %d)\n\
       %!"
      records described host (Server.Service.port srv) domains queue_cap
      max_batch;
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (match flight with
    | None -> ()
    | Some path ->
      Printf.printf "nscq serve: flight recorder on (SIGUSR1 dumps to %s)\n%!"
        path;
      Sys.set_signal Sys.sigusr1
        (Sys.Signal_handle
           (fun _ ->
             match Obs.Recorder.write_dump path with
             | n -> Printf.printf "nscq serve: %d flight event(s) → %s\n%!" n path
             | exception (Sys_error _ | Unix.Unix_error _) ->
               Printf.eprintf "nscq serve: flight dump to %s failed\n%!" path)));
    while not (Atomic.get stop) do
      (try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    Printf.printf "nscq serve: draining…\n%!";
    Server.Service.stop srv;
    cleanup ();
    Printf.printf "nscq serve: stopped cleanly\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve containment queries over the nscq wire protocol until \
             SIGINT (which drains in-flight requests and closes the \
             store cleanly). Over a shard manifest, each worker routes \
             queries over the manifest's shards; over a live store, the \
             server also accepts writes.")
    Term.(
      const run $ Arg.value store_opt $ cache_arg
      $ port_arg $ host_arg $ domains_arg $ queue_cap_arg $ max_batch_arg
      $ stats_interval_arg $ slow_query_arg $ flight_arg $ no_flight_arg
      $ partial_arg $ verbose_arg)

(* --- stats --- *)

let stats_cmd =
  let detailed_arg =
    Arg.(value & flag & info [ "detailed" ] ~doc:"Scan the collection for shape and frequency profiles.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Also print the unified metrics registry (Prometheus text \
                exposition) for the store or manifest — the same registry \
                a server exposes under $(b,--connect).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the metrics registry as JSON instead of the text \
                exposition (implies $(b,--metrics); local stores and \
                manifests only).")
  in
  let render_registry ~json reg =
    print_newline ();
    if json then print_string (Obs.Metrics.render_json reg)
    else print_string (Obs.Metrics.render_text reg)
  in
  let run store connect detailed metrics json =
    let metrics = metrics || json in
    if json && connect <> None then begin
      prerr_endline
        "nscq: --json applies to local stores and manifests (a server's \
         stats verb returns the text exposition)";
      exit 1
    end;
    with_target ?connect store @@ function
    | Remote { client; _ } -> print_string (remote (Server.Client.stats client))
    | Sharded r ->
      (* a sharded collection: the manifest summary, plus per-shard
         index sizes straight from the shard stores *)
      Format.printf "%a" Shard.Manifest.pp (Shard.Router.manifest r);
      if metrics then begin
        let reg = Obs.Metrics.create () in
        Shard.Router.register reg r;
        render_registry ~json reg
      end
    | Live t ->
      List.iter (fun (name, v) -> Printf.printf "%-18s %d\n" name v) (L.totals t);
      if metrics then begin
        let reg = Obs.Metrics.create () in
        L.register reg t;
        render_registry ~json reg
      end
    | Plain inv ->
      if detailed then Format.printf "%a@." Invfile.Stats.pp (Invfile.Stats.compute inv)
      else begin
        Printf.printf "records        %d\n" (IF.record_count inv);
        Printf.printf "atoms          %d\n" (IF.atom_count inv);
        Printf.printf "internal nodes %d\n" (IF.node_count inv);
        Printf.printf "top atoms:\n";
        List.iteri
          (fun i (a, c) -> if i < 10 then Printf.printf "  %-24s %d postings\n" a c)
          (IF.top_atoms inv)
      end;
      if metrics then begin
        let reg = Obs.Metrics.create () in
        Storage.Io_stats.register reg ~labels:[ ("source", "lists") ]
          (IF.lookup_stats inv);
        Storage.Io_stats.register reg ~labels:[ ("source", "store") ]
          (IF.store inv).Storage.Kv.stats;
        render_registry ~json reg
      end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show collection statistics (a store's, a shard manifest's, or \
             a running server's with --connect); --metrics adds the \
             unified registry view.")
    Term.(
      const run $ Arg.value store_opt $ connect_arg $ detailed_arg
      $ metrics_arg $ json_arg)

(* --- shard (build | status | reshard) --- *)

let manifest_path_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "m"; "manifest" ] ~docv:"PATH" ~doc:"Path of the shard manifest.")

let shards_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "shards" ] ~docv:"N" ~doc:"Number of shards.")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("hash", Shard.Manifest.Hash); ("round-robin", Shard.Manifest.Round_robin) ])
        Shard.Manifest.Hash
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Record placement: $(b,hash) (stable under reordering) or \
              $(b,round-robin) (perfectly balanced).")

let shard_build_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Manifest file to create; shard stores are placed next to it.")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:"Shard builders run in parallel, at most $(docv) at once \
                (0 = default: NSCQ_DOMAINS or the host's core count - 1).")
  in
  let run input format tokenize output backend record_format policy shards
      domains =
    if shards < 1 then begin
      prerr_endline "nscq: --shards must be at least 1";
      exit 1
    end;
    let values = parse_collection ~format ~tokenize (read_file input) in
    let max_domains =
      if domains > 0 then domains else Containment.Parallel.default_domains ()
    in
    let m =
      Shard.Partitioner.build ~policy ~backend ~record_format ~max_domains
        ~shards ~manifest_path:output values
    in
    Format.printf "%a" Shard.Manifest.pp m
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Partition a collection into N shard stores (built in \
             parallel) plus the manifest tying them together.")
    Term.(
      const run $ input_arg $ format_arg $ tokenize_arg $ output_arg
      $ backend_arg $ recfmt_arg $ policy_arg $ shards_arg $ domains_arg)

let shard_status_cmd =
  let run manifest_path =
    let m = load_manifest manifest_path in
    Format.printf "%a" Shard.Manifest.pp m;
    let missing = ref 0 in
    Array.iteri
      (fun i (s : Shard.Manifest.shard) ->
        match s.Shard.Manifest.location with
        | Shard.Manifest.Local { path; _ } when not (Sys.file_exists path) ->
          incr missing;
          Printf.printf "shard %d store %s is MISSING\n" i path
        | _ -> ())
      m.Shard.Manifest.shards;
    if !missing > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Describe a shard manifest and check its local stores exist.")
    Term.(const run $ manifest_path_arg)

let shard_reshard_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH"
          ~doc:"Manifest file to write the resharded collection under \
                (source stores are left intact).")
  in
  let run manifest_path shards output backend =
    let m = load_manifest manifest_path in
    match Shard.Partitioner.reshard ~backend ~shards ~output m with
    | m' -> Format.printf "%a" Shard.Manifest.pp m'
    | exception Invalid_argument msg ->
      Printf.eprintf "nscq: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:"Rewrite a sharded collection with a different shard count \
             (merging via the id-shifting reduce when shrinking, \
             re-partitioning when growing). Query results are unchanged.")
    Term.(const run $ manifest_path_arg $ shards_arg $ output_arg $ backend_arg)

let shard_cmd =
  Cmd.group
    (Cmd.info "shard"
       ~doc:"Sharded collections: partitioned build, status, reshard.")
    [ shard_build_cmd; shard_status_cmd; shard_reshard_cmd ]


(* The store named on the command line, for error messages raised after
   the command has opened it. *)
let store_of_argv () =
  let rec find = function
    | ("-s" | "--store") :: path :: _ -> Some path
    | a :: rest ->
      if String.starts_with ~prefix:"--store=" a then
        Some (String.sub a 8 (String.length a - 8))
      else find rest
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let () =
  let info =
    Cmd.info "nscq" ~version:"1.0.0"
      ~doc:"Containment queries on nested sets (Ibrahim & Fletcher, EDBT 2013)."
  in
  let cmd =
    Cmd.group info
      [ generate_cmd; build_cmd; query_cmd; join_cmd; trace_cmd;
        explain_cmd; flight_cmd; workload_cmd; stats_cmd; repl_cmd;
        sql_cmd; serve_cmd; shard_cmd; check_cmd; repair_cmd; export_cmd;
        merge_cmd; compact_cmd; insert_cmd; delete_cmd; flush_cmd ]
  in
  (* A damaged store, a file that is not a store, a failed shard or a
     refused request is a one-line error (exit 1), not an internal error;
     every other exception still reports as Cmdliner's would. *)
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("nscq: " ^ m); exit 1) fmt in
  let at_store msg =
    match store_of_argv () with
    | Some path -> fail "%s: %s" path msg
    | None -> fail "%s" msg
  in
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception (IF.Malformed msg | Storage.Codec.Corrupt msg) -> at_store msg
  | exception (Live.Live_manifest.Corrupt msg | Live.Wal.Corrupt msg) ->
    at_store (msg ^ " (try 'nscq repair')")
  | exception Storage.Store_file.Not_a_store (path, reason) ->
    fail "%s: %s" path reason
  | exception Shard.Router.Shard_failed (i, reason) ->
    fail "shard %d failed: %s (use --partial for a degraded answer)" i reason
  | exception Refused (code, message) ->
    fail "server refused: %s: %s"
      (Format.asprintf "%a" Server.Wire.pp_error_code code)
      message
  | exception e ->
    Printf.eprintf "nscq: internal error, uncaught exception:\n  %s\n"
      (Printexc.to_string e);
    exit Cmd.Exit.internal_error
