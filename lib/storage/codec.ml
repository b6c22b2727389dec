type writer = Buffer.t

let writer ?(size = 64) () = Buffer.create size
let contents = Buffer.contents

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  let rec loop n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      loop (n lsr 7)
    end
  in
  loop n

let write_int_list buf l =
  write_varint buf (List.length l);
  let prev = ref (-1) in
  List.iter
    (fun x ->
      if x <= !prev then invalid_arg "Codec.write_int_list: not strictly increasing";
      write_varint buf (x - !prev - 1);
      prev := x)
    l

let write_int_array buf a =
  write_varint buf (Array.length a);
  let prev = ref (-1) in
  Array.iter
    (fun x ->
      if x <= !prev then invalid_arg "Codec.write_int_array: not strictly increasing";
      write_varint buf (x - !prev - 1);
      prev := x)
    a

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let write_raw = Buffer.add_string
let write_raw_sub buf s ~pos ~len = Buffer.add_substring buf s pos len

type reader = { data : string; limit : int; mutable pos : int }

exception Corrupt of string

let reader s = { data = s; limit = String.length s; pos = 0 }

let reader_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.reader_sub: out of bounds";
  { data = s; limit = pos + len; pos }

let at_end r = r.pos >= r.limit
let pos r = r.pos

(* The bound check is inlined and a one-byte varint (every gap, count and
   small field of a postings list) returns on the fast path; longer ones
   take the loop. A canonical varint is minimal (no trailing zero byte)
   and fits a non-negative int: a ninth byte carries at most six bits.
   No closure and no ref cell escapes, so a read allocates nothing. *)
let read_varint r =
  let pos = r.pos in
  if pos >= r.limit then raise (Corrupt "truncated varint");
  let b = Char.code (String.unsafe_get r.data pos) in
  if b < 0x80 then begin
    r.pos <- pos + 1;
    b
  end
  else begin
    let acc = ref (b land 0x7f) and shift = ref 7 and p = ref (pos + 1) in
    let more = ref true in
    while !more do
      if !p >= r.limit then raise (Corrupt "truncated varint");
      let b = Char.code (String.unsafe_get r.data !p) in
      incr p;
      if !shift = 56 && b >= 0x40 then
        raise (Corrupt "varint too large");
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then begin
        if b = 0 then raise (Corrupt "varint not minimal");
        more := false
      end
    done;
    r.pos <- !p;
    !acc
  end

let remaining r = r.limit - r.pos

let read_int_list r =
  let n = read_varint r in
  let rec loop i prev acc =
    if i = n then List.rev acc
    else
      let x = prev + 1 + read_varint r in
      loop (i + 1) x (x :: acc)
  in
  loop 0 (-1) []

(* Every element costs at least one byte, so a count beyond the bytes
   left is corrupt — checked before anything is allocated. *)
let read_int_array r =
  let n = read_varint r in
  if n > remaining r then raise (Corrupt "int array longer than its payload");
  if n = 0 then [||]
  else begin
    let a = Array.make n 0 in
    let prev = ref (-1) in
    for i = 0 to n - 1 do
      let x = !prev + 1 + read_varint r in
      if x <= !prev then raise (Corrupt "int array overflows");
      a.(i) <- x;
      prev := x
    done;
    a
  end

let read_string r =
  let n = read_varint r in
  if n > remaining r then raise (Corrupt "truncated string");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let encode_int_array a =
  let w = writer () in
  write_int_array w a;
  contents w

let decode_int_array s = read_int_array (reader s)
