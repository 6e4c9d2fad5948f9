// lmbenchd: the suite pipeline as a long-running local service.
//
// A Daemon listens on a Unix-domain socket (filesystem permissions are the
// access control — benchmarking is a local, trusted affair, like the
// paper's loopback-only network benchmarks), speaks the length-prefixed
// JSON protocol in src/svc/wire.h, and executes submitted suite requests
// strictly one at a time through a shared BenchService — concurrent
// benchmark runs would time-share the machine they are trying to measure,
// so the job queue is FIFO by design.  Every completed batch is appended
// to the daemon's trend store (src/db/trend_store.h), building the run
// history the changepoint detector and `lmbench_trend` read.
//
// Threading: two threads.  One event loop (src/sys Epoll + WakePipe) owns
// every socket: it accepts, reassembles request frames incrementally
// (wire.h FrameReader), answers the quick ops, and writes every frame any
// client receives with non-blocking writes, parking short writes on
// EPOLLOUT.  One executor drains the job queue.  A `submit` leaves its
// connection open; the executor hands progress events and the final result
// batch to the loop (enqueue + WakePipe::notify, never a socket write), and
// a client that disappears mid-run only loses its stream — the run
// completes and is stored regardless.  Submit streams are lossless.
// A `watch` turns its connection into a telemetry stream: the daemon
// subscribes to obs::IntervalPublisher while running, and every interval
// frame a load benchmark publishes (--interval-ms) is fanned out to all
// watchers, so any client can tail a running job's latency windows live
// without being the submitter.  The publishing load-gen thread only pushes
// into each watcher's bounded ring, which drops its oldest frame when full,
// so a watcher that stops reading loses frames (counted in `dropped`)
// instead of stalling the measurement.
#ifndef LMBENCHPP_SRC_SVC_DAEMON_H_
#define LMBENCHPP_SRC_SVC_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/interval_stream.h"
#include "src/report/json.h"
#include "src/svc/bench_service.h"
#include "src/svc/wire.h"
#include "src/sys/epoll_loop.h"
#include "src/sys/socket.h"
#include "src/sys/unique_fd.h"

namespace lmb::svc {

struct DaemonConfig {
  std::string socket_path = "lmbenchd.sock";
  // Trend store directory; every completed batch is appended here.  ""
  // disables trend recording (the `trend` op then reports an error).
  std::string store_dir = "lmbench-trends";
  // Calibration cache used when a request does not name its own.
  std::string cal_cache_path = ".lmbenchpp-cal.db";
  // Log one line per lifecycle event to stderr.
  bool verbose = false;
  // Benchmark registry; nullptr = Registry::global().
  const Registry* registry = nullptr;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();  // stop()

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Binds the socket and spawns the event-loop + executor threads.  Throws
  // sys::SysError when the socket cannot be created.
  void start();

  // Blocks until a `shutdown` request (or stop()) ends the daemon.
  void wait();

  // Requests shutdown and joins every thread.  Idempotent; called by the
  // destructor.
  void stop();

  bool running() const;
  int completed_jobs() const;
  const std::string& socket_path() const { return config_.socket_path; }

 private:
  struct Job {
    long id = 0;
    std::uint64_t conn = 0;  // progress + result frames go here
    Options args;
  };

  // One client connection; owned and touched only by the loop thread.
  struct Conn {
    sys::UniqueFd fd;
    FrameReader reader;
    std::string out;          // encoded frames not yet written
    std::size_t out_off = 0;  // bytes of `out` already written
    std::uint32_t events = EPOLLIN;  // current epoll interest
    bool requested = false;    // its one request frame has been handled
    bool watcher = false;      // a `watch` stream: frames come from its ring
    bool eof = false;          // the client closed its side; keep writing
    bool close_when_flushed = false;
  };

  // A frame the executor hands to a submit stream.
  struct StreamFrame {
    std::uint64_t conn = 0;
    std::string payload;
    bool last = false;  // close the connection once it is written
  };

  // Per-watcher frame ring.  Frames are stored without their closing brace
  // so the loop can append this watcher's `dropped` count when it writes.
  struct WatchRing {
    std::deque<std::shared_ptr<const std::string>> frames;
    std::uint64_t dropped = 0;
  };

  void event_loop();
  void executor_loop();
  void execute(Job job);

  // Loop-thread side.
  void accept_ready();
  // At the fd limit: accepts one pending connection into the spare fd's
  // slot and closes it.  False when nothing was accepted.
  bool shed_connection();
  // Reads and writes connection `id` for epoll `events` (0 = write only);
  // an I/O error or a malformed request closes just that connection.
  void serve(std::uint64_t id, std::uint32_t events);
  // One read; false when the connection was closed.
  bool read_input(std::uint64_t id, Conn& conn);
  void handle_request(std::uint64_t id, Conn& conn, const std::string& payload);
  // Writes what `conn` has pending, then closes it if its last frame went.
  void flush(std::uint64_t id, Conn& conn);
  void close_conn(std::uint64_t id);
  // Appends executor frames to their connections and flushes every
  // connection with something new, watchers included.
  void deliver();
  // Appends `id`'s ringed watch frames to `conn.out`.
  void refill_watcher(std::uint64_t id, Conn& conn);

  // Any-thread side: enqueue, then wake the loop.
  void send(std::uint64_t conn, std::string payload, bool last = false);
  void broadcast(const std::string& payload);  // every watcher's ring
  void post();

  std::string status_payload();
  std::string trend_payload(const report::JsonObject& request);
  // IntervalPublisher callback (runs on a load-gen worker thread).
  void on_interval(const obs::IntervalFrame& frame);
  void log(const std::string& line);

  DaemonConfig config_;
  BenchService service_;

  std::unique_ptr<sys::UnixListener> listener_;
  sys::UniqueFd spare_fd_;  // /dev/null, given up to shed a connection at the fd limit
  sys::Epoll epoll_;
  sys::WakePipe wake_;
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> loop_stop_{false};
  std::unordered_map<std::uint64_t, Conn> conns_;  // loop thread only
  std::uint64_t next_conn_id_ = 2;  // tags 0 and 1 are the listener and wake pipe

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable shutdown_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  bool started_ = false;
  long next_job_id_ = 1;
  std::string running_bench_;   // "" when idle
  long running_job_ = 0;        // 0 when idle
  int running_bench_index_ = 0;  // 0-based run-order position (== completed)
  int running_bench_total_ = 0;  // benchmarks in the running suite
  int completed_ = 0;
  std::string last_results_json_;  // newest completed lmbenchpp.results.v1

  // Frames bound for clients, filled by other threads and drained by the
  // loop.  Held only to push or to swap/pop, never across I/O, so the
  // load-gen thread in on_interval never waits on a socket.
  std::mutex out_mu_;
  std::vector<StreamFrame> stream_out_;
  std::map<std::uint64_t, WatchRing> watchers_;  // by connection id
  std::uint64_t watch_dropped_ = 0;  // every watcher's drops, ever
  int interval_token_ = -1;  // IntervalPublisher subscription

  // Last: both threads use every member above.
  std::thread loop_thread_;
  std::thread executor_thread_;
};

}  // namespace lmb::svc

#endif  // LMBENCHPP_SRC_SVC_DAEMON_H_
