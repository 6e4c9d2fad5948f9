// Client side of the lmbenchd protocol (src/svc/wire.h).
//
// Each operation opens a fresh connection — the daemon answers one request
// per connection, and a fresh connect doubles as a liveness check.  Connect failures (no daemon, stale socket) throw
// sys::SysError; lmbench_client maps those to exit code 5 so scripts can
// tell "daemon down" from "suite failed".
#ifndef LMBENCHPP_SRC_SVC_CLIENT_H_
#define LMBENCHPP_SRC_SVC_CLIENT_H_

#include <functional>
#include <map>
#include <string>

#include "src/report/json.h"

namespace lmb::svc {

class Client {
 public:
  // `connect_timeout_ms` bounds every connect.  `stall_timeout_ms` bounds
  // mid-frame read gaps: waiting for the *next* frame may legitimately take
  // as long as a benchmark run (unbounded), but once a frame's first byte
  // arrives the rest was written in the same write(2) — a daemon killed
  // mid-frame otherwise hangs the client forever.  On a stall the read
  // throws sys::SysError(ETIMEDOUT), which lmbench_client maps to exit
  // code 5.  -1 disables the stall bound.
  explicit Client(std::string socket_path, int connect_timeout_ms = 2000,
                  int stall_timeout_ms = 10'000);

  // Submits a suite run (`args` is run_suite's flag map, e.g.
  // {"quick","true"},{"only","lat_syscall"}) and streams response frames
  // to `on_event` — including the terminal one — until the daemon sends
  // `{"event":"done"}` or an `{"ok":false}` error, which is returned.
  report::JsonValue submit(const std::map<std::string, std::string>& args,
                           const std::function<void(const report::JsonValue&)>& on_event = nullptr);

  // Single-frame ops; each returns the daemon's response object.
  report::JsonValue status();
  report::JsonValue results();
  // Optional filters; "" = unfiltered.
  report::JsonValue trend(const std::string& host = "", const std::string& bench = "",
                          const std::string& metric = "");
  report::JsonValue shutdown();

  // Attaches to the daemon's live telemetry stream: every pushed frame
  // (the initial `watching` ack, `interval_stats`, `bench_start`,
  // `job_done`) goes to `on_frame` until the daemon closes the stream or
  // `max_frames` interval_stats frames have arrived (0 = unbounded).
  // Returns the number of interval_stats frames seen.
  int watch(const std::function<void(const report::JsonValue&)>& on_frame,
            int max_frames = 0);

  const std::string& socket_path() const { return socket_path_; }

 private:
  report::JsonValue roundtrip(const std::string& request);

  std::string socket_path_;
  int connect_timeout_ms_;
  int stall_timeout_ms_;
};

}  // namespace lmb::svc

#endif  // LMBENCHPP_SRC_SVC_CLIENT_H_
