type writer = Buffer.t

let writer () = Buffer.create 64
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

type reader = { data : string; limit : int; mutable pos : int }

exception Corrupt of string

let reader s = { data = s; limit = String.length s; pos = 0 }

let reader_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.reader_sub: out of bounds";
  { data = s; limit = pos + len; pos }

let at_end r = r.pos >= r.limit
let pos r = r.pos

let read_byte r =
  if r.pos >= r.limit then raise (Corrupt "truncated varint");
  let b = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  b

(* A loop over local refs rather than an inner recursive function, which
   would allocate a closure over [r] on every call. *)
let read_varint r =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then raise (Corrupt "varint too large");
    let b = read_byte r in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !acc

let read_int_list r =
  let n = read_varint r in
  let rec loop i prev acc =
    if i = n then List.rev acc
    else
      let x = prev + 1 + read_varint r in
      loop (i + 1) x (x :: acc)
  in
  loop 0 (-1) []

let read_int_array r =
  let n = read_varint r in
  if n = 0 then [||]
  else begin
    let a = Array.make n 0 in
    let prev = ref (-1) in
    for i = 0 to n - 1 do
      let x = !prev + 1 + read_varint r in
      a.(i) <- x;
      prev := x
    done;
    a
  end

let read_string r =
  let n = read_varint r in
  if r.pos + n > r.limit then raise (Corrupt "truncated string");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let encode_int_array a =
  let w = writer () in
  write_int_array w a;
  contents w

let decode_int_array s = read_int_array (reader s)
