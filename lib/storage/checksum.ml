(* Slicing-by-8 over native ints: slice k of [table] maps a byte to the
   CRC of that byte followed by k zero bytes, so eight bytes fold in with
   eight lookups. Every value is an immediate int (the CRC fits in 32
   bits of a 63-bit int), so a checksum allocates nothing but its boxed
   result. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let mask = 0xFFFFFFFF

let crc32_bytes ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.crc32: bad range";
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let slice k x = Array.unsafe_get table ((k lsl 8) lor x) in
  let crc = ref (Int32.to_int init land mask lxor mask) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let c = !crc and j = !i in
    crc :=
      slice 7 (byte j lxor (c land 0xff))
      lxor slice 6 (byte (j + 1) lxor ((c lsr 8) land 0xff))
      lxor slice 5 (byte (j + 2) lxor ((c lsr 16) land 0xff))
      lxor slice 4 (byte (j + 3) lxor (c lsr 24))
      lxor slice 3 (byte (j + 4))
      lxor slice 2 (byte (j + 5))
      lxor slice 1 (byte (j + 6))
      lxor slice 0 (byte (j + 7));
    i := j + 8
  done;
  while !i < stop do
    crc := slice 0 ((!crc lxor byte !i) land 0xff) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor mask)

let crc32_sub ?init s ~pos ~len =
  crc32_bytes ?init (Bytes.unsafe_of_string s) ~pos ~len

let crc32 ?init s = crc32_sub ?init s ~pos:0 ~len:(String.length s)
