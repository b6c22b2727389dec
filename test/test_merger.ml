(* Merger.append edge cases — empty sides, all-tombstoned sources — and
   the law the shard subsystem leans on: appending store B onto store A
   answers every query exactly like one store built from A's records
   followed by B's. *)

module IF = Invfile.Inverted_file
module E = Containment.Engine
module V = Nested.Value

let check_int = Alcotest.(check int)
let check_ids = Alcotest.(check (list int))

let build path values =
  let store = Storage.Log_store.create path in
  let b = Invfile.Builder.create store in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) values;
  Invfile.Builder.finish b

let with_store values f =
  Testutil.with_temp_path ".log" @@ fun path ->
  let inv = build path values in
  Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv)

let records inv q = (E.query inv q).E.records

let licences = List.map Testutil.v Testutil.licences_strings

let probe_queries =
  List.map Testutil.v
    [ "{UK, {A, motorbike}}"; "{USA}"; "{car}"; "{nothere}"; "{B, car}" ]

(* --- empty source: a no-op append --- *)

let test_empty_src () =
  with_store licences @@ fun dst ->
  with_store [] @@ fun src ->
  Invfile.Merger.append ~dst ~src;
  check_int "record count unchanged" (List.length licences) (IF.record_count dst);
  List.iter
    (fun q ->
      with_store licences @@ fun oracle ->
      check_ids (V.to_string q) (records oracle q) (records dst q))
    probe_queries

(* --- empty destination: append becomes a copy --- *)

let test_empty_dst () =
  with_store [] @@ fun dst ->
  with_store licences @@ fun src ->
  Invfile.Merger.append ~dst ~src;
  check_int "all records copied" (List.length licences) (IF.record_count dst);
  List.iter
    (fun q ->
      with_store licences @@ fun oracle ->
      check_ids (V.to_string q) (records oracle q) (records dst q))
    probe_queries

(* --- all-tombstoned source contributes nothing --- *)

let test_all_tombstoned_src () =
  with_store licences @@ fun dst ->
  with_store licences @@ fun src ->
  for i = 0 to List.length licences - 1 do
    Alcotest.(check bool)
      "delete succeeds" true
      (Invfile.Updater.delete_record src i)
  done;
  Invfile.Merger.append ~dst ~src;
  check_int "no records appended" (List.length licences) (IF.record_count dst);
  List.iter
    (fun q ->
      with_store licences @@ fun oracle ->
      check_ids (V.to_string q) (records oracle q) (records dst q))
    probe_queries

(* --- mixed payload representations --- *)

(* Append across every pairing of stores written all-varint, all-blocked
   and by the length rule: the merger reads each list in its own format
   and writes what it touches by the rule. Integrity.check's
   canonical-bytes rule then catches any list left in a form its own tag
   does not re-encode to. One atom ("common") has more than a block of
   postings on each side, so the rule writes both formats. *)

let build_with_codec path codec values =
  let inv = build path values in
  Testutil.recode_lists ?codec inv;
  inv

let with_store_codec codec values f =
  Testutil.with_temp_path ".log" @@ fun path ->
  let inv = build_with_codec path codec values in
  Fun.protect ~finally:(fun () -> IF.close inv) (fun () -> f inv)

let test_mixed_codec_append () =
  let filler =
    List.init 150 (fun i -> Testutil.v (Printf.sprintf "{common, x%d, {A, car}}" (i mod 5)))
  in
  let a = filler @ List.filteri (fun i _ -> i < 2) licences in
  let b = filler @ List.filteri (fun i _ -> i >= 2) licences in
  let queries = probe_queries @ List.map Testutil.v [ "{common, x3}"; "{common, {A}}" ] in
  List.iter
    (fun (dst_name, dst_codec) ->
      List.iter
        (fun (src_name, src_codec) ->
          let ctx = Printf.sprintf "%s <- %s" dst_name src_name in
          with_store_codec dst_codec a @@ fun dst ->
          with_store_codec src_codec b @@ fun src ->
          Invfile.Merger.append ~dst ~src;
          (match E.verify_store dst with
          | [] -> ()
          | problems ->
            Alcotest.failf "%s: %d integrity problem(s), first: %s" ctx
              (List.length problems)
              (Format.asprintf "%a" Invfile.Integrity.pp_problem
                 (List.hd problems)));
          List.iter
            (fun q ->
              with_store (a @ b) @@ fun oracle ->
              check_ids
                (ctx ^ ": " ^ V.to_string q)
                (records oracle q) (records dst q))
            queries)
        Testutil.codecs)
    Testutil.codecs

(* --- crash mid-merge: repair must restore a consistent store --- *)

module F = Storage.Fault

(* Run [Merger.append] onto the log store at [dst_path] behind a fault
   wrapper; returns the wrapper (for op counts) and whether it crashed. *)
let append_with_faults ?(config = F.default) dst_path src =
  let wrapper = F.wrap ~config (Storage.Log_store.open_existing dst_path) in
  let crashed = ref false in
  (try
     let dst = IF.open_store (F.kv wrapper) in
     Invfile.Merger.append ~dst ~src
   with F.Crashed _ -> crashed := true);
  (F.kv wrapper).Storage.Kv.close ();
  (wrapper, !crashed)

let copy_file src dst =
  let ic = open_in_bin src in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

(* Kill the destination store at every write boundary of an append whose
   lists are blocked-compressed, then require Engine.repair to leave
   Engine.verify_store clean and queries agreeing with an oracle over the
   records that actually survived. *)
let test_mid_merge_crash_sweep () =
  let half = List.length licences / 2 in
  let a = List.filteri (fun i _ -> i < half) licences in
  let b = List.filteri (fun i _ -> i >= half) licences in
  with_store_codec (Some Invfile.Plist.Blocked) b @@ fun src ->
  Testutil.with_temp_path ".log" @@ fun pristine ->
  IF.close (build_with_codec pristine (Some Invfile.Plist.Blocked) a);
  let total =
    let wrapper, crashed = append_with_faults pristine src in
    Alcotest.(check bool) "no crash without a crash config" false crashed;
    F.write_ops wrapper
  in
  Alcotest.(check bool)
    (Printf.sprintf "enough write boundaries (%d)" total)
    true (total > 10);
  (* the counting run mutated its destination, so rebuild it *)
  IF.close (build_with_codec pristine (Some Invfile.Plist.Blocked) a);
  for n = 1 to total do
    Testutil.with_temp_path ".log" @@ fun work ->
    copy_file pristine work;
    let config = { F.default with F.crash_after = Some n } in
    let _, crashed = append_with_faults ~config work src in
    Alcotest.(check bool)
      (Printf.sprintf "crashed at boundary %d" n)
      true crashed;
    let kv = Storage.Log_store.open_existing work in
    let inv = IF.open_store kv in
    Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
    (match E.verify_store inv with
    | [] -> ()
    | _ :: _ ->
      let report = E.repair inv in
      if report.E.problems_after <> [] then
        Alcotest.failf "repair left %d problem(s) at boundary %d"
          (List.length report.E.problems_after) n);
    (* whatever survived, queries must agree with the value-level oracle *)
    let live =
      List.filter_map
        (fun id ->
          Option.map (fun value -> (id, value)) (IF.record_value_opt inv id))
        (List.init (IF.record_count inv) Fun.id)
    in
    List.iter
      (fun q ->
        let expected =
          List.filter_map
            (fun (id, s) ->
              if
                Containment.Embed.check Containment.Semantics.Containment
                  Containment.Semantics.Hom ~q ~s
              then Some id
              else None)
            live
        in
        check_ids
          (Printf.sprintf "boundary %d: %s" n (V.to_string q))
          expected
          (records inv q))
      probe_queries
  done

(* --- property: append = build from the concatenation --- *)

let arbitrary_two_collections =
  QCheck.make
    ~print:(fun (a, b) ->
      String.concat "\n" (List.map V.to_string a)
      ^ "\n--\n"
      ^ String.concat "\n" (List.map V.to_string b))
    (fun st ->
      let n a = QCheck.Gen.int_range 0 6 st + a in
      ( List.init (n 0) (fun _ ->
            Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st),
        List.init (n 0) (fun _ ->
            Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st) ))

let prop_append_is_concat (a, b) =
  with_store a @@ fun dst ->
  with_store b @@ fun src ->
  with_store (a @ b) @@ fun oracle ->
  Invfile.Merger.append ~dst ~src;
  if IF.record_count dst <> IF.record_count oracle then
    QCheck.Test.fail_reportf "record counts differ: %d vs %d"
      (IF.record_count dst) (IF.record_count oracle);
  let st = Random.State.make [| 97 |] in
  let queries =
    probe_queries
    @ List.map (fun r -> Testutil.shrink_to_subquery st r) (a @ b)
  in
  List.for_all
    (fun q ->
      V.is_set q
      &&
      let got = records dst q and want = records oracle q in
      if got <> want then
        QCheck.Test.fail_reportf "results differ on %s: [%s] vs [%s]"
          (V.to_string q)
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int want))
      else true)
    (List.filter V.is_set queries)

(* --- the k-way merge against a build from scratch --- *)

(* One source of a merge: its records, the ones tombstoned in the store
   before the merge, and the live ones the merge's keep predicate
   rejects. *)
type spec = { values : V.t list; deleted : int list; dropped : int list; binary : bool }

let print_specs specs =
  String.concat "\n--\n"
    (List.map
       (fun sp ->
         Printf.sprintf "%s%s (deleted %s; dropped %s)"
           (if sp.binary then "binary: " else "")
           (String.concat " " (List.map V.to_string sp.values))
           (String.concat "," (List.map string_of_int sp.deleted))
           (String.concat "," (List.map string_of_int sp.dropped)))
       specs)

(* 0-4 sources of 0-5 records; some empty, some wholly tombstoned, some
   in the binary record format. [pure] leaves nothing to drop. *)
let gen_specs ~pure st =
  let module G = QCheck.Gen in
  List.init (G.int_range 0 4 st) (fun _ ->
      let n = G.int_range 0 5 st in
      let ids = List.init n Fun.id in
      let all_dead = (not pure) && G.int_bound 4 st = 0 in
      let deleted =
        if pure then [] else List.filter (fun _ -> all_dead || G.int_bound 3 st = 0) ids
      in
      let dropped =
        if pure then []
        else List.filter (fun i -> (not (List.mem i deleted)) && G.int_bound 3 st = 0) ids
      in
      {
        values = List.init n (fun _ -> Testutil.gen_leafy_set ~max_depth:3 ~max_width:4 st);
        deleted;
        dropped;
        binary = G.bool st;
      })

let arbitrary_specs ~pure = QCheck.make ~print:print_specs (gen_specs ~pure)

let build_spec sp =
  let record_format = if sp.binary then `Binary else `Syntax in
  let b = Invfile.Builder.create ~record_format (Storage.Mem_store.create ()) in
  List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) sp.values;
  let inv = Invfile.Builder.finish b in
  List.iter (fun i -> ignore (Invfile.Updater.delete_record inv i)) sp.deleted;
  inv

let survivors sp =
  List.filteri
    (fun i _ -> not (List.mem i sp.deleted || List.mem i sp.dropped))
    sp.values

let matrix =
  List.concat_map
    (fun (aname, algorithm) ->
      List.map
        (fun (sname, embedding, join) ->
          (aname ^ "/" ^ sname, { E.default with E.algorithm; embedding; join }))
        [
          ("hom", Containment.Semantics.Hom, Containment.Semantics.Containment);
          ("iso", Containment.Semantics.Iso, Containment.Semantics.Containment);
          ("homeo", Containment.Semantics.Homeo, Containment.Semantics.Containment);
          ("superset", Containment.Semantics.Hom, Containment.Semantics.Superset);
          ("equality", Containment.Semantics.Hom, Containment.Semantics.Equality);
        ])
    [ ("bu", E.Bottom_up); ("td", E.Top_down); ("naive", E.Naive_scan) ]

let store_payloads inv =
  List.filter (fun (k, _) -> k.[0] = 'a' || k = IF.meta_nodes) (Storage.Kv.to_alist (IF.store inv))

let prop_merge_is_build ~pure specs =
  let srcs = List.map build_spec specs in
  let dst, kept =
    Invfile.Merger.merge (Storage.Mem_store.create ())
      (List.map2
         (fun src sp -> Invfile.Merger.source src ~keep:(fun i -> not (List.mem i sp.dropped)))
         srcs specs)
  in
  let want = List.concat_map survivors specs in
  let oracle = Containment.Collection.of_values want in
  List.iter2
    (fun sp kept ->
      let expect =
        List.filter
          (fun i -> not (List.mem i sp.deleted || List.mem i sp.dropped))
          (List.init (List.length sp.values) Fun.id)
      in
      if Array.to_list kept <> expect then QCheck.Test.fail_report "kept ids differ")
    specs kept;
  if IF.record_count dst <> List.length want then
    QCheck.Test.fail_reportf "%d records, want %d" (IF.record_count dst) (List.length want);
  List.iteri
    (fun i v ->
      if not (V.equal (IF.record_value dst i) v) then
        QCheck.Test.fail_reportf "record %d differs" i)
    want;
  (match E.verify_store dst with
  | [] -> ()
  | p :: _ -> QCheck.Test.fail_reportf "integrity: %a" Invfile.Integrity.pp_problem p);
  if IF.top_atoms dst <> IF.top_atoms oracle then QCheck.Test.fail_report "top-k tables differ";
  if pure && store_payloads dst <> store_payloads oracle then
    QCheck.Test.fail_report "lists are not byte-identical to the build's";
  let st = Random.State.make [| 11 |] in
  let queries = probe_queries @ List.map (Testutil.shrink_to_subquery st) want in
  List.iter
    (fun q ->
      if V.is_set q then
        List.iter
          (fun (name, config) ->
            let got = (E.query ~config dst q).E.records
            and exp = (E.query ~config oracle q).E.records in
            if got <> exp then
              QCheck.Test.fail_reportf "%s on %s: [%s] vs [%s]" name (V.to_string q)
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int exp)))
          matrix)
    queries;
  true

(* The frequency table of a merged store is the one a build writes. *)
let test_merged_top_k () =
  let all = List.map Testutil.v [ "{x, y}"; "{x, {y, z}}"; "{x, w}"; "{w, {w}}" ] in
  let dst = Testutil.mem_collection [ "{x, y}"; "{x, {y, z}}" ] in
  let src = Testutil.mem_collection [ "{x, w}"; "{w, {w}}" ] in
  let built = Containment.Collection.of_values all in
  let show inv =
    String.concat " " (List.map (fun (a, n) -> Printf.sprintf "%s:%d" a n) (IF.top_atoms inv))
  in
  Alcotest.(check string) "build" "w:3 x:3 y:2 z:1" (show built);
  let merged, _ =
    Invfile.Merger.merge (Storage.Mem_store.create ())
      [ Invfile.Merger.source dst; Invfile.Merger.source src ]
  in
  Alcotest.(check string) "merge" (show built) (show merged);
  Invfile.Merger.append ~dst ~src;
  Alcotest.(check string) "append in place" (show built) (show dst)

(* An in-place append writes the table anew over every list of the
   destination, not only the ones it touched: a table a delete left stale,
   or one a store never had, does not carry over. *)
let test_append_top_k_after_delete () =
  let show inv =
    String.concat " " (List.map (fun (a, n) -> Printf.sprintf "%s:%d" a n) (IF.top_atoms inv))
  in
  let dst = Testutil.mem_collection [ "{x, y}"; "{q, {q, q}}"; "{x, {y, z}}" ] in
  ignore (Invfile.Updater.delete_record dst 1);
  Alcotest.(check bool) "stale after the delete" true (List.mem_assoc "q" (IF.top_atoms dst));
  Invfile.Merger.append ~dst ~src:(Testutil.mem_collection [ "{x, w}"; "{w, {w}}" ]);
  let built =
    Containment.Collection.of_values
      (List.map Testutil.v [ "{x, y}"; "{x, {y, z}}"; "{x, w}"; "{w, {w}}" ])
  in
  Alcotest.(check string) "after a delete" (show built) (show dst);
  let dst = Testutil.mem_collection [ "{x, y}"; "{x, {y, z}}" ] in
  ignore ((IF.store dst).Storage.Kv.delete IF.meta_topk);
  Invfile.Merger.append ~dst ~src:(Testutil.mem_collection [ "{x, w}"; "{w, {w}}" ]);
  Alcotest.(check string) "without a table" (show built) (show dst)

(* --- each destination key is put once on flush and on compaction --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "nscq_merge_" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_one_put_per_key () =
  with_temp_dir @@ fun dir ->
  (* puts per segment file, per key *)
  let puts : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let counting path (kv : Storage.Kv.t) =
    if not (Testutil.contains (Filename.basename path) "seg-") then kv
    else begin
      (* a reopened file (the compaction's output) keeps its counts *)
      let per_key =
        match Hashtbl.find_opt puts path with
        | Some per_key -> per_key
        | None ->
          let per_key = Hashtbl.create 64 in
          Hashtbl.replace puts path per_key;
          per_key
      in
      {
        kv with
        Storage.Kv.put =
          (fun k value ->
            Hashtbl.replace per_key k (1 + Option.value ~default:0 (Hashtbl.find_opt per_key k));
            kv.Storage.Kv.put k value);
      }
    end
  in
  let module L = Live.Live_store in
  let config = { L.default with L.flush_records = 0; wrap = counting } in
  let t = L.create ~config dir in
  Fun.protect ~finally:(fun () -> L.close t) @@ fun () ->
  let written = ref 0 in
  let check_written ctx =
    Hashtbl.iter
      (fun path per_key ->
        if Hashtbl.length per_key > 0 then begin
          Hashtbl.iter
            (fun k n ->
              if n <> 1 then Alcotest.failf "%s: %s: key %S put %d times" ctx path k n)
            per_key;
          incr written;
          Hashtbl.reset per_key
        end)
      puts
  in
  let insert_all = List.iter (fun v -> ignore (L.insert t v)) in
  let filler = List.init 150 (fun i -> Testutil.v (Printf.sprintf "{common, x%d, {A, car}}" (i mod 5))) in
  insert_all (licences @ filler);
  Alcotest.(check bool) "memtable delete" true (L.delete t 1);
  check_int "flush seals" (List.length licences + 149) (L.flush t);
  check_written "flush";
  insert_all (filler @ licences);
  ignore (L.flush t);
  check_written "second flush";
  Alcotest.(check bool) "sealed delete" true (L.delete t 3);
  Alcotest.(check (option int)) "compaction merges both" (Some 2) (L.compact ~all:true t);
  check_written "compaction";
  check_int "one file written per flush and compaction" 3 !written;
  check_int "tombstone purged" 0 (L.tombstone_count t);
  let want = List.filteri (fun i _ -> i <> 1 && i <> 3) (licences @ filler @ filler @ licences) in
  let oracle = Containment.Collection.of_values want in
  List.iter
    (fun q ->
      check_int (V.to_string q) (List.length (records oracle q)) (List.length (L.query t q)))
    (probe_queries @ [ Testutil.v "{common, x3}" ])

let () =
  Alcotest.run "merger"
    [
      ( "edges",
        [
          Alcotest.test_case "empty source is a no-op" `Quick test_empty_src;
          Alcotest.test_case "empty destination becomes a copy" `Quick
            test_empty_dst;
          Alcotest.test_case "all-tombstoned source contributes nothing"
            `Quick test_all_tombstoned_src;
          Alcotest.test_case "mixed codec pairings" `Quick
            test_mixed_codec_append;
          Alcotest.test_case "merged stores write the top-k table" `Quick
            test_merged_top_k;
          Alcotest.test_case "append rewrites a stale or missing top-k table" `Quick
            test_append_top_k_after_delete;
          Alcotest.test_case "flush and compaction put each key once" `Quick
            test_one_put_per_key;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash sweep mid-merge, repair recovers" `Slow
            test_mid_merge_crash_sweep;
        ] );
      ( "laws",
        [
          Testutil.qcheck_case ~count:25
            ~name:"append ≡ build from concatenation"
            arbitrary_two_collections prop_append_is_concat;
          Testutil.qcheck_case ~count:60
            ~name:"k-way merge ≡ build from the kept records"
            (arbitrary_specs ~pure:false) (prop_merge_is_build ~pure:false);
          Testutil.qcheck_case ~count:40
            ~name:"k-way merge dropping nothing writes the build's bytes"
            (arbitrary_specs ~pure:true) (prop_merge_is_build ~pure:true);
        ] );
    ]
