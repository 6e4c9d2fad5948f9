// lmbenchd wire protocol: length-prefixed JSON frames over a stream socket.
//
// Framing: a 4-byte big-endian unsigned length followed by that many bytes
// of UTF-8 JSON.  Length-prefixing (rather than newline-delimiting) lets
// payloads embed whole serialized result batches — which are pretty-printed
// multi-line JSON — without escaping games.
//
// Conversation: the client sends one request object `{"op": ...}` and
// reads response frames until the operation completes.  Every op except
// `submit` answers with exactly one frame; `submit` streams progress-event
// frames (`{"event": "suite_start" | "bench_start" | "bench_finish"}`)
// and terminates with `{"event": "done", ...}`.  Errors are in-band:
// `{"ok": false, "error": "..."}`.
//
// Ops:
//   submit    {"op":"submit","args":{flag:value,...}} — run_suite's flag
//             map, verbatim; the daemon rebuilds a RunRequest from it
//   status    {"op":"status"} -> queue depth, current job and benchmark
//             (with bench_index/bench_total suite progress), totals
//   results   {"op":"results"} -> newest completed lmbenchpp.results.v1
//             document (null before the first completion)
//   trend     {"op":"trend"[,"bench":...,"metric":...]} -> rendered trend
//             table + lmbenchpp.trend.v1 document from the daemon's store
//   watch     {"op":"watch"} -> `{"event":"watching"}` ack, then the
//             connection becomes a one-way telemetry stream: the daemon
//             pushes `{"event":"interval_stats",...}` frames (one per
//             closed --interval-ms latency window of any running load
//             benchmark, with window p50/p99/p999, rps and shard counters)
//             plus `bench_start`/`job_done` markers, until the client
//             disconnects or the daemon shuts down.  Watch frames are
//             lossy: each carries `"dropped":N`, the frames this watcher
//             has lost so far because it read slower than they arrived
//   shutdown  {"op":"shutdown"} -> ack, then the daemon exits its loop
#ifndef LMBENCHPP_SRC_SVC_WIRE_H_
#define LMBENCHPP_SRC_SVC_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/report/json.h"

namespace lmb::svc {

// Protocol sanity bound; a frame this large is a bug or an attack, not a
// result batch.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

// Length prefix + payload as one buffer.  Throws std::invalid_argument when
// `payload` exceeds kMaxFrameBytes.
std::string encode_frame(std::string_view payload);

// Writes one frame (length prefix + payload) to `fd`.  Throws SysError on
// I/O failure and std::invalid_argument when `payload` exceeds
// kMaxFrameBytes.
void write_frame(int fd, const std::string& payload);

// Reads one frame from `fd`.  Returns nullopt on a clean EOF at a frame
// boundary (peer closed); throws std::runtime_error on EOF mid-frame or an
// oversized length prefix, SysError on I/O failure.
std::optional<std::string> read_frame(int fd);

// read_frame with bounded waits.  `first_byte_timeout_ms` bounds the wait
// for the first byte of the length prefix (-1 = forever; legitimate for
// long-running ops whose next event may be minutes away).  `stall_timeout_ms`
// bounds every later byte gap: the daemon writes each frame with a single
// write(2), so once the first byte arrives the rest follows within
// milliseconds — a longer silence means the peer died mid-frame, and an
// unbounded read would block forever (the lmbench_client hang this exists
// to fix).  Throws SysError(ETIMEDOUT) on either timeout.
std::optional<std::string> read_frame_bounded(int fd, int first_byte_timeout_ms,
                                              int stall_timeout_ms);

// Incremental frame reassembly for non-blocking readers: feed() whatever
// bytes arrived, then call next() until it returns nullopt.  Agrees with
// read_frame on every byte stream: the same frames in the same order, and
// the same std::runtime_error where read_frame throws (an oversized length
// prefix from next(), a stream torn inside a frame from at_eof()).
class FrameReader {
 public:
  void feed(const void* data, std::size_t len);

  // The oldest complete frame, or nullopt when none is buffered yet.
  std::optional<std::string> next();

  // Call when the stream ended: throws if it ended inside a frame.
  void at_eof() const;

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // start of the first unconsumed frame in buf_
};

// Convenience: parses a frame as JSON and checks it is an object.
// Throws std::invalid_argument on malformed payloads.
report::JsonValue parse_message(const std::string& payload);

// `{"ok":false,"error":<message>}` — the in-band failure frame.
std::string error_message(const std::string& message);

}  // namespace lmb::svc

#endif  // LMBENCHPP_SRC_SVC_WIRE_H_
