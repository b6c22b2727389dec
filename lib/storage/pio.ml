external pread : Unix.file_descr -> int -> bytes -> int -> int -> int
  = "nscq_pio_pread"

external pwrite : Unix.file_descr -> int -> bytes -> int -> int -> int
  = "nscq_pio_pwrite"

let check_range what buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg ("Pio." ^ what ^ ": bad range")

let read_upto stats fd ~off buf pos len =
  check_range "read_upto" buf pos len;
  let n = pread fd off buf pos len in
  Io_stats.record_read stats ~bytes:n;
  n

let read_exact stats fd ~off buf pos len =
  if read_upto stats fd ~off buf pos len < len then raise End_of_file

let write_all stats fd ~off buf pos len =
  check_range "write_all" buf pos len;
  let n = pwrite fd off buf pos len in
  Io_stats.record_write stats ~bytes:n;
  if n < len then failwith "Pio.write_all: short write"
