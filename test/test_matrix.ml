(* Configuration-matrix integration tests: one deterministic workload
   evaluated across every storage backend × postings format (lists written
   all-varint, all-blocked, or each by the length rule of Plist.to_bytes)
   × record format × algorithm combination, all required to produce
   identical answers.
   Complements the per-feature suites by exercising the combinations
   together (where integration bugs live). *)

module E = Containment.Engine
module S = Containment.Semantics
module IF = Invfile.Inverted_file

let values =
  lazy
    (Datagen.Synthetic.values
       (Datagen.Synthetic.make ~seed:77
          ~params:(Datagen.Synthetic.params_of_shape Datagen.Synthetic.Wide)
          (Datagen.Synthetic.Zipfian 0.7))
       120)

let queries inv =
  Datagen.Workload.values (Datagen.Workload.benchmark_queries ~seed:5 ~count:16 inv)

(* answers from the reference configuration: Mem / rule / Syntax / BU *)
let expected =
  lazy
    (let inv = Containment.Collection.of_values (Lazy.force values) in
     List.map (fun q -> (E.query inv q).E.records) (queries inv))

let backends =
  [
    ("mem", fun () -> (Containment.Collection.Mem, fun () -> ()));
    ( "hash",
      fun () ->
        let path = Testutil.temp_path ".tch" in
        ( Containment.Collection.Hash path,
          fun () -> try Sys.remove path with Sys_error _ -> () ) );
    ( "btree",
      fun () ->
        let path = Testutil.temp_path ".tcb" in
        ( Containment.Collection.Btree path,
          fun () -> try Sys.remove path with Sys_error _ -> () ) );
    ( "log",
      fun () ->
        let path = Testutil.temp_path ".klog" in
        ( Containment.Collection.Log path,
          fun () -> try Sys.remove path with Sys_error _ -> () ) );
  ]

let formats = [ ("syntax", `Syntax); ("binary", `Binary) ]

let algorithms =
  [ ("bottom-up", E.Bottom_up); ("top-down", E.Top_down);
    ("top-down-paper", E.Top_down_paper); ("naive", E.Naive_scan) ]

let check_combination backend_name mk_backend codec_name codec fmt_name record_format
    () =
  let backend, cleanup = mk_backend () in
  Fun.protect ~finally:cleanup @@ fun () ->
  let inv = Containment.Collection.of_values ~backend ~record_format (Lazy.force values) in
  Fun.protect ~finally:(fun () -> IF.close inv) @@ fun () ->
  Testutil.recode_lists ?codec inv;
  (* also exercise the cache on the heavier stores *)
  if backend_name <> "mem" then Containment.Collection.with_static_cache inv ~budget:50;
  List.iter2
    (fun q expected ->
      List.iter
        (fun (alg_name, algorithm) ->
          let got = (E.query ~config:{ E.default with E.algorithm } inv q).E.records in
          if got <> expected then
            Alcotest.failf "%s/%s/%s/%s diverged on %s" backend_name codec_name
              fmt_name alg_name (Nested.Value.to_string q))
        algorithms)
    (queries inv) (Lazy.force expected)

let cases =
  List.concat_map
    (fun (bname, mk) ->
      List.concat_map
        (fun (cname, codec) ->
          List.map
            (fun (fname, fmt) ->
              Alcotest.test_case
                (Printf.sprintf "%s × %s × %s" bname cname fname)
                `Slow
                (check_combination bname mk cname codec fname fmt))
            formats)
        Testutil.codecs)
    backends

let () = Alcotest.run "matrix" [ ("backend × codec × format × algorithm", cases) ]
