(** Positioned file I/O, shared by the file stores.

    Each call is one [pread(2)]/[pwrite(2)] at an explicit file offset,
    straight into the OCaml [bytes]: no [lseek], no shared file position,
    no bounce buffer. It loops only on a short transfer and retries
    [EINTR]; other errors raise [Unix.Unix_error]. Each call counts one
    read or write of the bytes moved on the given {!Io_stats.t}.

    The C stub keeps the domain lock, so the heap buffer cannot move
    during the call and other threads of the calling domain wait for it.
    A store handle belongs to one domain.

    @raise Invalid_argument if [pos, len] is not a range of the buffer. *)

val read_upto :
  Io_stats.t -> Unix.file_descr -> off:int -> bytes -> int -> int -> int
(** [read_upto stats fd ~off buf pos len] reads up to [len] bytes at file
    offset [off] into [buf] from [pos]; the count read is less than [len]
    only at end of file. *)

val read_exact :
  Io_stats.t -> Unix.file_descr -> off:int -> bytes -> int -> int -> unit
(** As {!read_upto}, but @raise End_of_file if the file ends first. *)

val write_all :
  Io_stats.t -> Unix.file_descr -> off:int -> bytes -> int -> int -> unit
(** [write_all stats fd ~off buf pos len] writes [len] bytes of [buf] from
    [pos] at file offset [off]. *)
