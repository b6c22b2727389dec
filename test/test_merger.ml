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
        ] );
    ]
