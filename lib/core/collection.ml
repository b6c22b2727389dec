type backend = Mem | Hash of string | Btree of string | Log of string

let store_of_backend ?(buckets = 65536) = function
  | Mem -> Storage.Mem_store.create ()
  | Hash path -> Storage.Hash_store.create ~buckets path
  | Btree path -> Storage.Btree_store.create path
  | Log path -> Storage.Log_store.create path

let of_values ?(backend = Mem) ?record_format values =
  let store = store_of_backend backend in
  let builder = Invfile.Builder.create ?record_format store in
  List.iter (fun v -> ignore (Invfile.Builder.add_value builder v)) values;
  Invfile.Builder.finish builder

let of_strings ?backend strings =
  of_values ?backend (List.map Nested.Syntax.of_string strings)

let of_file ?backend path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  of_values ?backend (Nested.Syntax.parse_many contents)

let with_static_cache inv ~budget =
  Invfile.Inverted_file.attach_cache inv
    (Invfile.Cache.create Invfile.Cache.Static ~capacity:budget)

let paper_example () =
  of_strings
    [
      "{London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}";
      "{Boston, USA, {USA, VA, {A, B, car}}, {UK, {A, motorbike}}}";
    ]

let paper_example_query = Nested.Syntax.of_string "{USA, {UK, {A, motorbike}}}"
