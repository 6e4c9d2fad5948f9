// Full-buffer read/write helpers over raw fds.
//
// Partial transfers are the norm for pipes and sockets; every benchmark that
// streams data needs exact-count semantics, so we centralize the retry loops.
#ifndef LMBENCHPP_SRC_SYS_FDIO_H_
#define LMBENCHPP_SRC_SYS_FDIO_H_

#include <sys/uio.h>

#include <cstddef>
#include <string>

#include "src/sys/unique_fd.h"

namespace lmb::sys {

// Writes exactly `len` bytes; throws SysError on failure (including EPIPE).
void write_full(int fd, const void* buf, size_t len);

// Reads exactly `len` bytes; throws SysError on failure and
// std::runtime_error on premature EOF.
void read_full(int fd, void* buf, size_t len);

// Reads up to `len` bytes (one read call, retried on EINTR).  Returns bytes
// read; 0 means EOF.
size_t read_some(int fd, void* buf, size_t len);

// Outcome of one non-blocking transfer attempt.  Exactly one of
// `would_block`/`closed` may be set when `bytes` is 0; a short `bytes` with
// neither flag means the kernel buffer ran out mid-call — just try again on
// the next readiness notification.
struct IoOutcome {
  size_t bytes = 0;
  bool would_block = false;  // EAGAIN/EWOULDBLOCK: wait for readiness
  bool closed = false;       // read: EOF or peer reset; write: EPIPE/reset
};

// One non-blocking read on an O_NONBLOCK fd.  Retries EINTR; EAGAIN maps to
// would_block, EOF and ECONNRESET map to closed (a reset mid-benchmark is a
// connection event to handle, not a server-killing exception).  Other
// errors throw SysError.
IoOutcome read_nonblock(int fd, void* buf, size_t len);

// One non-blocking write.  Retries EINTR; EAGAIN maps to would_block,
// EPIPE/ECONNRESET map to closed.  Other errors throw SysError.
IoOutcome write_nonblock(int fd, const void* buf, size_t len);

// One non-blocking scatter-gather write (writev).  Same errno mapping as
// write_nonblock.  Lets a reply path hand the kernel a header and a shared
// payload buffer in one syscall instead of copying both into a contiguous
// out buffer first — the RPC hot path of the sharded load server coalesces
// many queued replies into a single writev this way.
IoOutcome writev_nonblock(int fd, const ::iovec* iov, int iovcnt);

// Waits until `fd` is readable or `timeout_ms` elapses (-1 = forever).
// Retries poll on EINTR with the remaining time recomputed, so a signal
// storm can neither tear the wait down nor extend the deadline.  Returns
// false on timeout.
bool poll_readable(int fd, int timeout_ms);

// open(2) wrappers that throw on failure.
UniqueFd open_read(const std::string& path);
UniqueFd open_write(const std::string& path);  // O_WRONLY|O_CREAT|O_TRUNC, 0644
UniqueFd open_rw_create(const std::string& path);

// Writes `content` to a new file at `path` (create/truncate).
void write_file(const std::string& path, const std::string& content);

// Appends one newline-terminated `line` to `path`, creating it if missing.
// When the file does not end in '\n' (a torn line left by a crashed
// writer), the line is preceded by one so it starts on a line of its own
// instead of being glued onto the fragment.  One write_full call, so lines
// up to PIPE_BUF append atomically with other writers.
void append_line(const std::string& path, const std::string& line);

// Reads a whole file into a string; throws on failure.
std::string read_file(const std::string& path);

}  // namespace lmb::sys

#endif  // LMBENCHPP_SRC_SYS_FDIO_H_
