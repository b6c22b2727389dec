(* Tests for the storage substrate: codec, stores, pager. *)

module C = Storage.Codec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Codec --- *)

let test_varint_roundtrip () =
  let cases = [ 0; 1; 127; 128; 255; 300; 16384; 1 lsl 30; max_int ] in
  List.iter
    (fun n ->
      let w = C.writer () in
      C.write_varint w n;
      let r = C.reader (C.contents w) in
      check_int (Printf.sprintf "varint %d" n) n (C.read_varint r);
      check_bool "consumed" true (C.at_end r))
    cases

let test_varint_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Codec.write_varint: negative")
    (fun () -> C.write_varint (C.writer ()) (-1))

let test_int_array_roundtrip () =
  let cases = [ [||]; [| 0 |]; [| 5 |]; [| 0; 1; 2 |]; [| 3; 100; 101; 5000 |] ] in
  List.iter
    (fun a ->
      let s = C.encode_int_array a in
      Alcotest.(check (array int)) "roundtrip" a (C.decode_int_array s))
    cases

let test_int_array_monotone_enforced () =
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Codec.write_int_array: not strictly increasing") (fun () ->
      ignore (C.encode_int_array [| 3; 3 |]))

let test_string_roundtrip () =
  let w = C.writer () in
  C.write_string w "";
  C.write_string w "hello";
  C.write_string w (String.make 1000 '\xff');
  let r = C.reader (C.contents w) in
  check_string "empty" "" (C.read_string r);
  check_string "hello" "hello" (C.read_string r);
  check_int "binary blob" 1000 (String.length (C.read_string r))

(* An inner recursive [loop] would allocate a closure over the reader on
   every call; every posting decode reads several varints. *)
let test_varint_no_alloc () =
  let w = C.writer () in
  for i = 0 to 999 do
    C.write_varint w (i * 1_000_003)
  done;
  let r = C.reader (C.contents w) in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (C.read_varint r : int)
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "1000 calls allocate %.0f words" words) true
    (words < 1000.)

let test_corrupt_detection () =
  (match C.read_varint (C.reader "\x80") with
  | exception C.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on truncated varint");
  match C.read_string (C.reader "\x05ab") with
  | exception C.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on short string"

(* A count beyond the bytes left is refused before anything is
   allocated for it; the reader only accepts the minimal form that
   write_varint emits, within a non-negative int. *)
let test_hostile_counts_and_varints () =
  let corrupt name s f =
    match f (C.reader s) with
    | exception C.Corrupt _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: decoded" name
  in
  let varint n =
    let w = C.writer () in
    C.write_varint w n;
    C.contents w
  in
  (match C.decode_int_array (varint (1 lsl 58)) with
  | exception C.Corrupt _ -> ()
  | exception e -> Alcotest.failf "2^58 elements: raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "2^58 elements decoded");
  corrupt "int array longer than its bytes" (varint 3 ^ "\000\000") C.read_int_array;
  corrupt "non-minimal varint" "\x85\x00" C.read_varint;
  corrupt "varint past max_int" "\xff\xff\xff\xff\xff\xff\xff\xff\x40" C.read_varint;
  corrupt "string longer than its bytes" (varint (1 lsl 40)) C.read_string;
  check_int "max_int still reads" max_int (C.read_varint (C.reader (varint max_int)))

let prop_int_list_roundtrip =
  Testutil.qcheck_case ~name:"int list roundtrip"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 50) QCheck.small_nat)
    (fun l ->
      let l = List.sort_uniq Int.compare l in
      let w = C.writer () in
      C.write_int_list w l;
      C.read_int_list (C.reader (C.contents w)) = l)

let prop_mixed_stream =
  Testutil.qcheck_case ~name:"mixed write/read stream"
    (QCheck.pair QCheck.small_nat QCheck.printable_string)
    (fun (n, s) ->
      let w = C.writer () in
      C.write_varint w n;
      C.write_string w s;
      C.write_varint w (n + 1);
      let r = C.reader (C.contents w) in
      C.read_varint r = n && C.read_string r = s && C.read_varint r = n + 1)

(* --- store conformance suite, run against all three backends --- *)

let store_suite name (mk : unit -> Storage.Kv.t * (unit -> unit)) =
  let with_store f () =
    let store, cleanup = mk () in
    Fun.protect ~finally:cleanup (fun () -> f store)
  in
  [
    Alcotest.test_case (name ^ ": put/get") `Quick
      (with_store (fun s ->
           s.Storage.Kv.put "k1" "v1";
           s.Storage.Kv.put "k2" "v2";
           Alcotest.(check (option string)) "k1" (Some "v1") (s.Storage.Kv.get "k1");
           Alcotest.(check (option string)) "k2" (Some "v2") (s.Storage.Kv.get "k2");
           Alcotest.(check (option string)) "absent" None (s.Storage.Kv.get "k3")));
    Alcotest.test_case (name ^ ": replace") `Quick
      (with_store (fun s ->
           s.Storage.Kv.put "k" "old";
           s.Storage.Kv.put "k" "new";
           Alcotest.(check (option string)) "replaced" (Some "new") (s.Storage.Kv.get "k");
           check_int "length 1" 1 (s.Storage.Kv.length ())));
    Alcotest.test_case (name ^ ": delete") `Quick
      (with_store (fun s ->
           s.Storage.Kv.put "k" "v";
           check_bool "present deleted" true (s.Storage.Kv.delete "k");
           check_bool "absent delete" false (s.Storage.Kv.delete "k");
           Alcotest.(check (option string)) "gone" None (s.Storage.Kv.get "k");
           check_int "length 0" 0 (s.Storage.Kv.length ())));
    Alcotest.test_case (name ^ ": empty key and value") `Quick
      (with_store (fun s ->
           s.Storage.Kv.put "" "empty-key";
           s.Storage.Kv.put "ek" "";
           Alcotest.(check (option string)) "empty key" (Some "empty-key")
             (s.Storage.Kv.get "");
           Alcotest.(check (option string)) "empty value" (Some "") (s.Storage.Kv.get "ek")));
    Alcotest.test_case (name ^ ": binary safety") `Quick
      (with_store (fun s ->
           let k = "\x00\x01\xff bin" and v = String.init 256 Char.chr in
           s.Storage.Kv.put k v;
           Alcotest.(check (option string)) "binary" (Some v) (s.Storage.Kv.get k)));
    Alcotest.test_case (name ^ ": iter sees all") `Quick
      (with_store (fun s ->
           let n = 100 in
           for i = 0 to n - 1 do
             s.Storage.Kv.put (Printf.sprintf "key%03d" i) (string_of_int i)
           done;
           let keys = Storage.Kv.keys s in
           check_int "count" n (List.length keys);
           check_string "first" "key000" (List.hd keys);
           check_int "length agrees" n (s.Storage.Kv.length ())));
    Alcotest.test_case (name ^ ": many keys with collisions") `Quick
      (with_store (fun s ->
           (* far more keys than hash buckets in the test configuration *)
           let n = 2000 in
           for i = 0 to n - 1 do
             s.Storage.Kv.put ("k" ^ string_of_int i) (String.make (i mod 37) 'x')
           done;
           let ok = ref true in
           for i = 0 to n - 1 do
             match s.Storage.Kv.get ("k" ^ string_of_int i) with
             | Some v when String.length v = i mod 37 -> ()
             | _ -> ok := false
           done;
           check_bool "all retrievable" true !ok));
    Alcotest.test_case (name ^ ": large values") `Quick
      (with_store (fun s ->
           let big = String.init 200_000 (fun i -> Char.chr (i land 0xff)) in
           s.Storage.Kv.put "big" big;
           s.Storage.Kv.put "small" "s";
           Alcotest.(check (option string)) "big back" (Some big) (s.Storage.Kv.get "big");
           Alcotest.(check (option string)) "small intact" (Some "s")
             (s.Storage.Kv.get "small")));
    Alcotest.test_case (name ^ ": update helper") `Quick
      (with_store (fun s ->
           let bump v =
             match v with None -> "1" | Some x -> string_of_int (1 + int_of_string x)
           in
           Storage.Kv.update s "cnt" bump;
           Storage.Kv.update s "cnt" bump;
           Alcotest.(check (option string)) "updated twice" (Some "2")
             (s.Storage.Kv.get "cnt")));
  ]

let mem_store () = (Storage.Mem_store.create (), fun () -> ())

let hash_store () =
  let path = Testutil.temp_path ".tch" in
  let s = Storage.Hash_store.create ~buckets:64 path in
  ( s,
    fun () ->
      s.Storage.Kv.close ();
      try Sys.remove path with Sys_error _ -> () )

let log_store () =
  let path = Testutil.temp_path ".log"  in
  let s = Storage.Log_store.create path in
  ( s,
    fun () ->
      s.Storage.Kv.close ();
      try Sys.remove path with Sys_error _ -> () )

let btree_store () =
  let path = Testutil.temp_path ".tcb" in
  let s = Storage.Btree_store.create ~page_size:512 path in
  ( s,
    fun () ->
      s.Storage.Kv.close ();
      try Sys.remove path with Sys_error _ -> () )

(* --- persistence --- *)

let test_hash_reopen () =
  Testutil.with_temp_path ".tch" (fun path ->
      let s = Storage.Hash_store.create ~buckets:16 path in
      for i = 0 to 499 do
        s.Storage.Kv.put ("k" ^ string_of_int i) ("v" ^ string_of_int i)
      done;
      ignore (s.Storage.Kv.delete "k13");
      s.Storage.Kv.close ();
      let s2 = Storage.Hash_store.open_existing path in
      Alcotest.(check (option string)) "survives" (Some "v42") (s2.Storage.Kv.get "k42");
      Alcotest.(check (option string)) "deletion survives" None (s2.Storage.Kv.get "k13");
      check_int "count" 499 (s2.Storage.Kv.length ());
      s2.Storage.Kv.close ())

let test_btree_reopen () =
  Testutil.with_temp_path ".tcb" (fun path ->
      let s = Storage.Btree_store.create ~page_size:512 path in
      for i = 0 to 499 do
        s.Storage.Kv.put (Printf.sprintf "k%04d" i) ("v" ^ string_of_int i)
      done;
      s.Storage.Kv.close ();
      let s2 = Storage.Btree_store.open_existing ~page_size:512 path in
      Alcotest.(check (option string)) "survives" (Some "v42") (s2.Storage.Kv.get "k0042");
      check_int "count" 500 (s2.Storage.Kv.length ());
      s2.Storage.Kv.close ())

(* The format comes from the file's header; anything else is one typed
   error naming the path. *)
let test_store_file_header () =
  List.iter
    (fun (create, kind) ->
      Testutil.with_temp_path ".store" (fun path ->
          let s = create path in
          s.Storage.Kv.put "k" "v";
          s.Storage.Kv.close ();
          check_bool "kind" true (Storage.Store_file.kind path = kind);
          let s = Storage.Store_file.open_existing path in
          Alcotest.(check (option string)) "reopened" (Some "v") (s.Storage.Kv.get "k");
          s.Storage.Kv.close ()))
    [
      ((fun p -> Storage.Hash_store.create ~buckets:16 p), Storage.Store_file.Hash);
      ((fun p -> Storage.Btree_store.create p), Storage.Store_file.Btree);
      (Storage.Log_store.create, Storage.Store_file.Log);
    ];
  let refused path =
    match Storage.Store_file.open_existing path with
    | s ->
      s.Storage.Kv.close ();
      false
    | exception Storage.Store_file.Not_a_store (p, _) -> String.equal p path
  in
  List.iter
    (fun contents ->
      Testutil.with_temp_path ".other" (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc contents);
          check_bool ("refused: " ^ contents) true (refused path)))
    [ ""; "NSCQ"; "NSCQXXX1 and some more bytes" ];
  check_bool "directory" true (refused (Filename.get_temp_dir_name ()));
  check_bool "missing" true (refused "/nonexistent/store")

let test_btree_sorted_iter_and_range () =
  Testutil.with_temp_path ".tcb" (fun path ->
      let s = Storage.Btree_store.create ~page_size:512 path in
      let n = 300 in
      (* insert in reverse to exercise ordering *)
      for i = n - 1 downto 0 do
        s.Storage.Kv.put (Printf.sprintf "k%04d" i) (string_of_int i)
      done;
      let keys = ref [] in
      s.Storage.Kv.iter (fun k _ -> keys := k :: !keys);
      let keys = List.rev !keys in
      Alcotest.(check (list string))
        "iter ascending"
        (List.init n (Printf.sprintf "k%04d"))
        keys;
      let r = Storage.Btree_store.range s ~lo:"k0010" ~hi:"k0015" in
      Alcotest.(check (list string))
        "range [10,15)"
        [ "k0010"; "k0011"; "k0012"; "k0013"; "k0014" ]
        (List.map fst r);
      s.Storage.Kv.close ())

let test_hash_io_stats_count () =
  Testutil.with_temp_path ".tch" (fun path ->
      let s = Storage.Hash_store.create ~buckets:16 path in
      s.Storage.Kv.put "a" "1";
      let r0 = Storage.Io_stats.reads s.Storage.Kv.stats in
      ignore (s.Storage.Kv.get "a");
      check_bool "get does real reads" true
        (Storage.Io_stats.reads s.Storage.Kv.stats > r0);
      s.Storage.Kv.close ())

(* One bucket puts every key on one chain, and a put prepends to it. A
   get reads the bucket head, one block per record walked (header plus a
   key-sized prefix) and, on a hit, the value. *)
let test_hash_read_plan () =
  Testutil.with_temp_path ".tch" (fun path ->
      let s = Storage.Hash_store.create ~buckets:1 path in
      let reads f =
        let r0 = Storage.Io_stats.reads s.Storage.Kv.stats in
        f ();
        Storage.Io_stats.reads s.Storage.Kv.stats - r0
      in
      let get_is key v () =
        Alcotest.(check (option string)) ("get " ^ key) v (s.Storage.Kv.get key)
      in
      List.iter (fun k -> s.Storage.Kv.put k ("v" ^ k)) [ "k3"; "k2"; "k1" ];
      List.iter
        (fun (k, depth) ->
          check_int
            (Printf.sprintf "hit at depth %d" depth)
            (2 + depth)
            (reads (get_is k (Some ("v" ^ k)))))
        [ ("k1", 1); ("k2", 2); ("k3", 3) ];
      check_int "miss over 3 records" 4 (reads (get_is "k9" None));
      check_int "miss, longer key" 4 (reads (get_is "absent-key" None));
      check_int "put of a new key" 4 (reads (fun () -> s.Storage.Kv.put "k4" "vk4"));
      (* chain: k4 k1 k2 k3 *)
      check_int "replace at depth 3" 4 (reads (fun () -> s.Storage.Kv.put "k2" "new"));
      (* chain: k2 k4 k1 k3; replacing the head relinks through its next *)
      check_int "replace the head" 2 (reads (fun () -> s.Storage.Kv.put "k2" "newer"));
      check_int "count" 4 (s.Storage.Kv.length ());
      List.iter
        (fun (k, v) -> get_is k (Some v) ())
        [ ("k1", "vk1"); ("k2", "newer"); ("k3", "vk3"); ("k4", "vk4") ];
      let seen = ref [] in
      s.Storage.Kv.iter (fun k v -> seen := (k, v) :: !seen);
      Alcotest.(check (list (pair string string)))
        "iter walks the relinked chain"
        [ ("k2", "newer"); ("k4", "vk4"); ("k1", "vk1"); ("k3", "vk3") ]
        (List.rev !seen);
      s.Storage.Kv.close ())

let test_hash_closed_raises () =
  Testutil.with_temp_path ".tch" (fun path ->
      let s = Storage.Hash_store.create ~buckets:16 path in
      s.Storage.Kv.close ();
      match s.Storage.Kv.get "x" with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected failure on closed store")

(* --- log store: persistence, crash recovery, compaction --- *)

let test_log_reopen () =
  Testutil.with_temp_path ".log" (fun path ->
      let s = Storage.Log_store.create path in
      for i = 0 to 299 do
        s.Storage.Kv.put ("k" ^ string_of_int i) ("v" ^ string_of_int i)
      done;
      s.Storage.Kv.put "k7" "updated";
      ignore (s.Storage.Kv.delete "k13");
      s.Storage.Kv.close ();
      let s2 = Storage.Log_store.open_existing path in
      Alcotest.(check (option string)) "survives" (Some "v42") (s2.Storage.Kv.get "k42");
      Alcotest.(check (option string)) "latest version wins" (Some "updated")
        (s2.Storage.Kv.get "k7");
      Alcotest.(check (option string)) "tombstone survives" None (s2.Storage.Kv.get "k13");
      check_int "count" 299 (s2.Storage.Kv.length ());
      s2.Storage.Kv.close ())

let test_log_torn_tail_recovery () =
  Testutil.with_temp_path ".log" (fun path ->
      let s = Storage.Log_store.create path in
      s.Storage.Kv.put "stable" "value";
      s.Storage.Kv.put "casualty" "lost";
      s.Storage.Kv.close ();
      (* simulate a crash mid-append: truncate into the last record *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let size = (Unix.fstat fd).Unix.st_size in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let s2 = Storage.Log_store.open_existing path in
      Alcotest.(check (option string)) "prefix intact" (Some "value")
        (s2.Storage.Kv.get "stable");
      Alcotest.(check (option string)) "torn record dropped" None
        (s2.Storage.Kv.get "casualty");
      (* the store is writable again after recovery *)
      s2.Storage.Kv.put "after" "crash";
      s2.Storage.Kv.close ();
      let s3 = Storage.Log_store.open_existing path in
      Alcotest.(check (option string)) "post-recovery write persists" (Some "crash")
        (s3.Storage.Kv.get "after");
      s3.Storage.Kv.close ())

let test_log_corrupt_middle_truncates () =
  Testutil.with_temp_path ".log" (fun path ->
      let s = Storage.Log_store.create path in
      s.Storage.Kv.put "first" "1";
      s.Storage.Kv.put "second" "2";
      s.Storage.Kv.put "third" "3";
      s.Storage.Kv.close ();
      (* flip a byte inside the second record's value *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let contents = Bytes.create ((Unix.fstat fd).Unix.st_size) in
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let rec readall pos =
        if pos < Bytes.length contents then
          let n = Unix.read fd contents pos (Bytes.length contents - pos) in
          if n > 0 then readall (pos + n)
      in
      readall 0;
      let pos = 8 + 13 + 5 + 1 + 13 + 3 (* inside the second record *) in
      Bytes.set contents pos (Char.chr (Char.code (Bytes.get contents pos) lxor 0xff));
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      ignore (Unix.write fd contents 0 (Bytes.length contents));
      Unix.close fd;
      let s2 = Storage.Log_store.open_existing path in
      Alcotest.(check (option string)) "first intact" (Some "1") (s2.Storage.Kv.get "first");
      Alcotest.(check (option string)) "corrupt dropped" None (s2.Storage.Kv.get "second");
      Alcotest.(check (option string)) "suffix after corruption dropped too" None
        (s2.Storage.Kv.get "third");
      s2.Storage.Kv.close ())

let test_log_compaction () =
  Testutil.with_temp_path ".log" (fun path ->
      let s = Storage.Log_store.create path in
      for i = 0 to 99 do
        s.Storage.Kv.put "hot" ("version" ^ string_of_int i)
      done;
      s.Storage.Kv.put "other" "x";
      ignore (s.Storage.Kv.delete "other");
      check_bool "dead bytes accumulated" true (Storage.Log_store.dead_bytes s > 0);
      let size_before = (Unix.stat path).Unix.st_size in
      Storage.Log_store.compact s;
      let size_after = (Unix.stat path).Unix.st_size in
      check_bool "file shrank" true (size_after < size_before);
      check_int "no dead bytes" 0 (Storage.Log_store.dead_bytes s);
      Alcotest.(check (option string)) "latest version kept" (Some "version99")
        (s.Storage.Kv.get "hot");
      Alcotest.(check (option string)) "tombstoned gone" None (s.Storage.Kv.get "other");
      (* still usable and reopenable after compaction *)
      s.Storage.Kv.put "post" "compact";
      s.Storage.Kv.close ();
      let s2 = Storage.Log_store.open_existing path in
      Alcotest.(check (option string)) "reopen after compact" (Some "version99")
        (s2.Storage.Kv.get "hot");
      Alcotest.(check (option string)) "post-compact write" (Some "compact")
        (s2.Storage.Kv.get "post");
      s2.Storage.Kv.close ())

let prop_log_store_model =
  Testutil.qcheck_case ~count:60 ~name:"log store = model over random op sequences"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 60)
       (QCheck.triple (QCheck.int_bound 2) (QCheck.int_bound 9) QCheck.printable_string))
    (fun ops ->
      Testutil.with_temp_path ".log" (fun path ->
          let s = Storage.Log_store.create path in
          let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun (op, k, v) ->
              let key = "key" ^ string_of_int k in
              match op with
              | 0 ->
                s.Storage.Kv.put key v;
                Hashtbl.replace model key v
              | 1 ->
                let expected = Hashtbl.mem model key in
                let got = s.Storage.Kv.delete key in
                Hashtbl.remove model key;
                assert (expected = got)
              | _ -> assert (s.Storage.Kv.get key = Hashtbl.find_opt model key))
            ops;
          (* reopen and compare against the model *)
          s.Storage.Kv.close ();
          let s2 = Storage.Log_store.open_existing path in
          let ok =
            Hashtbl.fold
              (fun k v acc -> acc && s2.Storage.Kv.get k = Some v)
              model
              (s2.Storage.Kv.length () = Hashtbl.length model)
          in
          s2.Storage.Kv.close ();
          ok))

(* The directory packs a record's offset and value length into one int;
   a value too long for that keeps a boxed entry, through put, get,
   overwrite, reopen and delete. *)
let test_log_store_long_value () =
  Testutil.with_temp_path ".log" @@ fun path ->
  let long = String.make ((1 lsl 24) + 3) 'z' in
  let s = Storage.Log_store.create path in
  s.Storage.Kv.put "long" long;
  s.Storage.Kv.put "short" "s";
  check_bool "long read back" true (s.Storage.Kv.get "long" = Some long);
  s.Storage.Kv.put "long" "now short";
  s.Storage.Kv.put "again" long;
  s.Storage.Kv.close ();
  let s = Storage.Log_store.open_existing path in
  Alcotest.(check (option string)) "overwritten" (Some "now short") (s.Storage.Kv.get "long");
  check_bool "reopened long" true (s.Storage.Kv.get "again" = Some long);
  check_bool "delete" true (s.Storage.Kv.delete "again");
  Alcotest.(check (option string)) "deleted" None (s.Storage.Kv.get "again");
  check_int "keys" 2 (s.Storage.Kv.length ());
  check_bool "dead bytes counted" true (Storage.Log_store.dead_bytes s > 2 * String.length long);
  s.Storage.Kv.close ()

let prop_btree_model =
  Testutil.qcheck_case ~count:40 ~name:"btree = model over random op sequences"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 120)
       (QCheck.triple (QCheck.int_bound 2) (QCheck.int_bound 30) QCheck.printable_string))
    (fun ops ->
      Testutil.with_temp_path ".tcb" (fun path ->
          let s = Storage.Btree_store.create ~page_size:256 path in
          let model : (string, string) Hashtbl.t = Hashtbl.create 16 in
          let ok = ref true in
          List.iter
            (fun (op, k, v) ->
              let key = Printf.sprintf "k%02d" k in
              match op with
              | 0 ->
                s.Storage.Kv.put key v;
                Hashtbl.replace model key v
              | 1 ->
                let expected = Hashtbl.mem model key in
                if s.Storage.Kv.delete key <> expected then ok := false;
                Hashtbl.remove model key
              | _ -> if s.Storage.Kv.get key <> Hashtbl.find_opt model key then ok := false)
            ops;
          (* iteration remains sorted and complete *)
          let keys = ref [] in
          s.Storage.Kv.iter (fun k _ -> keys := k :: !keys);
          let keys = List.rev !keys in
          let sorted = List.sort String.compare keys in
          let model_keys =
            Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort String.compare
          in
          s.Storage.Kv.close ();
          !ok && keys = sorted && sorted = model_keys))

(* --- golden payload fixtures: catch accidental format changes --- *)

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let test_codec_golden () =
  let w = C.writer () in
  C.write_varint w 300;
  C.write_string w "ab";
  C.write_int_array w [| 3; 10 |];
  check_string "codec layout stable" "ac02026162020306" (hex (C.contents w))

let test_crc32_golden () =
  (* standard test vector *)
  Alcotest.(check int32) "crc32 of '123456789'" 0xCBF43926l
    (Storage.Checksum.crc32 "123456789");
  Alcotest.(check int32) "crc32 of empty" 0l (Storage.Checksum.crc32 "")

(* The bytewise table-driven CRC-32 (reflected, polynomial 0xEDB88320)
   the sliced one must agree with. *)
let crc32_reference ?(init = 0l) s =
  let crc = ref (Int32.lognot init) in
  String.iter
    (fun ch ->
      let c = ref (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      crc := Int32.logxor !c (Int32.shift_right_logical !crc 8))
    s;
  Int32.lognot !crc

let test_crc32_chained () =
  let s = String.init 1000 (fun i -> Char.chr ((i * 7919) land 255)) in
  List.iter
    (fun cut ->
      let head = Storage.Checksum.crc32_sub s ~pos:0 ~len:cut in
      Alcotest.(check int32)
        (Printf.sprintf "chained at %d" cut)
        (Storage.Checksum.crc32 s)
        (Storage.Checksum.crc32_sub ~init:head s ~pos:cut ~len:(1000 - cut)))
    [ 0; 1; 7; 8; 9; 333; 999; 1000 ]

let prop_crc32_reference =
  Testutil.qcheck_case ~count:300 ~name:"crc32 = bytewise reference"
    QCheck.(triple (string_of_size (Gen.int_range 0 100)) (int_bound 16) int32)
    (fun (s, cut, init) ->
      let cut = min cut (String.length s) in
      Storage.Checksum.crc32 ~init s = crc32_reference ~init s
      && Storage.Checksum.crc32_sub s ~pos:cut ~len:(String.length s - cut)
         = crc32_reference (String.sub s cut (String.length s - cut)))

(* Every log record, WAL entry, manifest and wire frame is checksummed:
   a call costs its boxed result, not words per byte. *)
let test_crc32_no_alloc () =
  let b = Bytes.make 65536 'x' in
  ignore (Storage.Checksum.crc32_bytes b ~pos:0 ~len:16);
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Storage.Checksum.crc32_bytes b ~pos:0 ~len:(Bytes.length b) : int32)
  done;
  let words = Gc.minor_words () -. before in
  check_bool (Printf.sprintf "10 checksums of 64 KiB allocate %.0f words" words) true
    (words < 100.)

(* --- pager --- *)

let test_pager_basic () =
  Testutil.with_temp_path ".pg" (fun path ->
      let p = Storage.Pager.create ~page_size:256 path in
      let mk c = Bytes.make 256 c in
      let p0 = Storage.Pager.append_page p (mk 'a') in
      let p1 = Storage.Pager.append_page p (mk 'b') in
      check_int "page numbers" 0 p0;
      check_int "page numbers" 1 p1;
      check_int "count" 2 (Storage.Pager.page_count p);
      check_string "read back" (String.make 256 'b')
        (Bytes.to_string (Storage.Pager.read_page p 1));
      Storage.Pager.write_page p 0 (mk 'z');
      check_string "overwrite" (String.make 256 'z')
        (Bytes.to_string (Storage.Pager.read_page p 0));
      Storage.Pager.close p)

let test_pager_blob () =
  Testutil.with_temp_path ".pg" (fun path ->
      let p = Storage.Pager.create ~page_size:128 path in
      let blob = String.init 1000 (fun i -> Char.chr (i land 0xff)) in
      let first = Storage.Pager.append_blob p blob in
      check_string "blob roundtrip" blob
        (Storage.Pager.read_blob p ~first_page:first ~len:1000);
      check_string "empty blob" ""
        (Storage.Pager.read_blob p ~first_page:first ~len:0);
      Storage.Pager.close p)

let test_pager_bounds () =
  Testutil.with_temp_path ".pg" (fun path ->
      let p = Storage.Pager.create ~page_size:128 path in
      (match Storage.Pager.read_page p 0 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected out-of-bounds");
      (match Storage.Pager.write_page p 0 (Bytes.create 5) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected size mismatch");
      Storage.Pager.close p)

let test_pager_cache_hits () =
  Testutil.with_temp_path ".pg" (fun path ->
      let p = Storage.Pager.create ~page_size:128 ~cache_pages:4 path in
      let pg = Storage.Pager.append_page p (Bytes.make 128 'x') in
      ignore (Storage.Pager.read_page p pg);
      ignore (Storage.Pager.read_page p pg);
      check_bool "cache hit recorded" true
        (Storage.Io_stats.hits (Storage.Pager.stats p) >= 1);
      Storage.Pager.close p)

let test_pager_sparse_tail () =
  Testutil.with_temp_path ".pg" (fun path ->
      let p = Storage.Pager.create ~page_size:128 path in
      ignore (Storage.Pager.append_page p (Bytes.make 128 'a'));
      ignore (Storage.Pager.append_page p (Bytes.make 128 'b'));
      Unix.truncate path (128 + 32);
      check_string "tail past end of file reads as zeros"
        (String.make 32 'b' ^ String.make 96 '\000')
        (Bytes.to_string (Storage.Pager.read_page p 1));
      Storage.Pager.close p)

(* --- positioned I/O --- *)

let test_pio_short_read () =
  Testutil.with_temp_path ".pio" (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "0123456789");
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let stats = Storage.Io_stats.create () in
      let buf = Bytes.make 8 '.' in
      check_int "short count past end of file" 4
        (Storage.Pio.read_upto stats fd ~off:6 buf 0 8);
      check_string "read bytes land at pos" "6789...." (Bytes.to_string buf);
      check_int "at end of file" 0 (Storage.Pio.read_upto stats fd ~off:10 buf 0 8);
      Alcotest.check_raises "read_exact past end" End_of_file (fun () ->
          Storage.Pio.read_exact stats fd ~off:6 buf 0 8);
      Storage.Pio.write_all stats fd ~off:2 (Bytes.of_string "xy") 0 2;
      Bytes.fill buf 0 8 '.';
      Storage.Pio.read_exact stats fd ~off:0 buf 2 4;
      check_string "write_all lands at off" "..01xy.." (Bytes.to_string buf);
      check_int "reads counted" 4 (Storage.Io_stats.reads stats);
      check_int "bytes read counted" 12 (Storage.Io_stats.bytes_read stats);
      check_int "writes counted" 1 (Storage.Io_stats.writes stats);
      (match Storage.Pio.read_upto stats fd ~off:0 buf 6 4 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected a range error");
      Unix.close fd)

(* --- io stats --- *)

let test_io_stats_merge_and_ratio () =
  let a = Storage.Io_stats.create () and b = Storage.Io_stats.create () in
  Storage.Io_stats.record_read a ~bytes:10;
  Storage.Io_stats.record_hit a;
  Storage.Io_stats.record_miss b;
  Storage.Io_stats.record_write b ~bytes:7;
  let m = Storage.Io_stats.merge a b in
  check_int "reads" 1 (Storage.Io_stats.reads m);
  check_int "writes" 1 (Storage.Io_stats.writes m);
  check_int "bytes" 10 (Storage.Io_stats.bytes_read m);
  Alcotest.(check (float 0.001)) "ratio" 0.5 (Storage.Io_stats.hit_ratio m);
  Alcotest.(check (float 0.001)) "empty ratio" 0.
    (Storage.Io_stats.hit_ratio (Storage.Io_stats.create ()))

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint negative" `Quick test_varint_negative_rejected;
          Alcotest.test_case "int array roundtrip" `Quick test_int_array_roundtrip;
          Alcotest.test_case "monotonicity enforced" `Quick
            test_int_array_monotone_enforced;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "corruption detection" `Quick test_corrupt_detection;
          Alcotest.test_case "hostile counts and varints" `Quick
            test_hostile_counts_and_varints;
          Alcotest.test_case "read_varint allocates nothing" `Quick
            test_varint_no_alloc;
          prop_int_list_roundtrip;
          prop_mixed_stream;
        ] );
      ("mem store", store_suite "mem" mem_store);
      ("hash store", store_suite "hash" hash_store);
      ("btree store", store_suite "btree" btree_store);
      ("log store", store_suite "log" log_store);
      ( "persistence",
        [
          Alcotest.test_case "hash reopen" `Quick test_hash_reopen;
          Alcotest.test_case "btree reopen" `Quick test_btree_reopen;
          Alcotest.test_case "store file format from header" `Quick
            test_store_file_header;
          Alcotest.test_case "btree sorted iter + range" `Quick
            test_btree_sorted_iter_and_range;
          Alcotest.test_case "hash io stats" `Quick test_hash_io_stats_count;
          Alcotest.test_case "hash read plan" `Quick test_hash_read_plan;
          Alcotest.test_case "closed store raises" `Quick test_hash_closed_raises;
        ] );
      ( "btree model",
        [ prop_btree_model ] );
      ( "golden formats",
        [
          Alcotest.test_case "codec layout" `Quick test_codec_golden;
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_golden;
          Alcotest.test_case "crc32 chains" `Quick test_crc32_chained;
          Alcotest.test_case "crc32 allocates nothing" `Quick test_crc32_no_alloc;
          prop_crc32_reference;
        ] );
      ( "log store recovery",
        [
          Alcotest.test_case "reopen" `Quick test_log_reopen;
          Alcotest.test_case "torn tail" `Quick test_log_torn_tail_recovery;
          Alcotest.test_case "corrupt middle" `Quick test_log_corrupt_middle_truncates;
          Alcotest.test_case "compaction" `Quick test_log_compaction;
          prop_log_store_model;
          Alcotest.test_case "values past the packed length" `Quick
            test_log_store_long_value;
        ] );
      ( "pager",
        [
          Alcotest.test_case "basic" `Quick test_pager_basic;
          Alcotest.test_case "blob" `Quick test_pager_blob;
          Alcotest.test_case "bounds" `Quick test_pager_bounds;
          Alcotest.test_case "cache hits" `Quick test_pager_cache_hits;
          Alcotest.test_case "sparse tail" `Quick test_pager_sparse_tail;
        ] );
      ("pio", [ Alcotest.test_case "short read" `Quick test_pio_short_read ]);
      ( "io stats",
        [ Alcotest.test_case "merge & ratio" `Quick test_io_stats_merge_and_ratio ] );
    ]
