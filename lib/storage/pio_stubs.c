/* pread/pwrite on OCaml bytes for Storage.Pio. The domain lock is kept
   for the whole call, so the heap buffer cannot move under it. */
#include <errno.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

/* Moves [len] bytes at file offset [off], stopping early only at end of
   file; returns the count moved. */
static value pio(int wr, value fd, value off, value buf, value pos, value len)
{
  char *p = (char *)Bytes_val(buf) + Long_val(pos);
  intnat want = Long_val(len), done = 0;
  while (done < want) {
    off_t at = Long_val(off) + done;
    ssize_t n = wr ? pwrite(Int_val(fd), p + done, want - done, at)
                   : pread(Int_val(fd), p + done, want - done, at);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) caml_uerror(wr ? "pwrite" : "pread", Nothing);
    if (n == 0) break;
    done += n;
  }
  return Val_long(done);
}

value nscq_pio_pread(value fd, value off, value buf, value pos, value len)
{ return pio(0, fd, off, buf, pos, len); }
value nscq_pio_pwrite(value fd, value off, value buf, value pos, value len)
{ return pio(1, fd, off, buf, pos, len); }
