#include "src/svc/daemon.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/core/env.h"
#include "src/db/trend_store.h"
#include "src/report/serialize.h"
#include "src/report/trend.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace lmb::svc {

namespace {

constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;
// Frames a watcher may fall behind by before its oldest is dropped: about
// a quarter second of a --interval-ms=1 run on one generator shard.
constexpr std::size_t kWatchRingFrames = 256;

// Trims the trailing newline report::to_json emits so a batch document can
// be embedded as a JSON value inside a frame.
std::string embed(std::string json) {
  while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) {
    json.pop_back();
  }
  return json;
}

std::string quoted(const std::string& s) { return report::json_quote(s); }

// The descriptor held in reserve to shed a connection at the fd limit;
// invalid when even that cannot be opened.
sys::UniqueFd open_spare() { return sys::UniqueFd(::open("/dev/null", O_RDONLY | O_CLOEXEC)); }

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      service_(config_.registry != nullptr ? *config_.registry : Registry::global()) {
  epoll_.add(wake_.read_fd(), EPOLLIN, kWakeTag);
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  // A client can vanish while the loop writes to it; that must be a failed
  // write, not a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  listener_ = std::make_unique<sys::UnixListener>(config_.socket_path);
  sys::set_nonblocking(listener_->fd());
  spare_fd_ = open_spare();
  epoll_.add(listener_->fd(), EPOLLIN, kListenTag);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    started_ = true;
  }
  loop_stop_ = false;
  interval_token_ = obs::IntervalPublisher::global().subscribe(
      [this](const obs::IntervalFrame& frame) { on_interval(frame); });
  loop_thread_ = std::thread([this] { event_loop(); });
  executor_thread_ = std::thread([this] { executor_loop(); });
  log("listening on " + config_.socket_path);
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return stopping_; });
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return;
    }
    stopping_ = true;
  }
  // Detach from the publisher before joining anything: a benchmark still
  // draining must not call back into a daemon that is tearing down.
  if (interval_token_ >= 0) {
    obs::IntervalPublisher::global().unsubscribe(interval_token_);
    interval_token_ = -1;
  }
  queue_cv_.notify_all();
  shutdown_cv_.notify_all();
  // The executor first: the loop must still be there to write the running
  // job's last frames and the refusals of queued jobs.
  if (executor_thread_.joinable()) {
    executor_thread_.join();
  }
  loop_stop_ = true;
  wake_.notify();
  if (loop_thread_.joinable()) {
    loop_thread_.join();  // it closes every connection on its way out
  }
  listener_.reset();  // unlinks the socket path
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  log("stopped");
}

bool Daemon::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

int Daemon::completed_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

void Daemon::log(const std::string& line) {
  if (config_.verbose) {
    std::fprintf(stderr, "lmbenchd: %s\n", line.c_str());
  }
}

void Daemon::event_loop() {
  std::vector<epoll_event> events;
  while (!loop_stop_) {
    try {
      epoll_.wait(events, -1);
      for (const epoll_event& ev : events) {
        if (ev.data.u64 == kListenTag) {
          accept_ready();
        } else if (ev.data.u64 == kWakeTag) {
          wake_.drain();
          wake_pending_ = false;  // before deliver(): a later post() wakes us again
          deliver();
        } else {
          serve(ev.data.u64, ev.events);
        }
      }
    } catch (const std::exception& e) {
      log(std::string("event loop: ") + e.what());  // keep serving
    }
  }
  // The executor is joined, so the outbox holds its last frames; give them
  // one non-blocking attempt, then close every connection (clients see EOF).
  deliver();
  while (!conns_.empty()) {
    close_conn(conns_.begin()->first);
  }
  epoll_.del(listener_->fd());
}

void Daemon::accept_ready() {
  // One connection per wakeup: the listener is level-triggered, so epoll
  // reports the next pending one, and no accept4 is spent on EAGAIN.
  int fd;
  while ((fd = ::accept4(listener_->fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC)) < 0) {
    if (errno == EINTR || errno == ECONNABORTED) {
      continue;
    }
    if ((errno == EMFILE || errno == ENFILE) && shed_connection()) {
      return;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      log(std::string("accept failed: ") + std::strerror(errno));
    }
    return;
  }
  const std::uint64_t id = next_conn_id_++;
  conns_[id].fd.reset(fd);
  // The request usually arrives with the connect: read it now instead of
  // after another epoll_wait.  A quick op is then answered and closed
  // without the connection ever joining the epoll set; flush() registers
  // the ones that outlive this first read.
  serve(id, EPOLLIN);
}

bool Daemon::shed_connection() {
  // Out of descriptors, the pending connection keeps the level-triggered
  // listener readable and the loop would spin until an fd frees up.  Give
  // back the spare, take the connection and close it (the client sees
  // EOF), then hold the spare again.
  if (!spare_fd_) {
    return false;
  }
  const int err = errno;
  spare_fd_.reset();
  const int fd = ::accept4(listener_->fd(), nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
  }
  spare_fd_ = open_spare();  // if this fails, the next shortage is logged, not shed
  log(std::string("connection shed: ") + std::strerror(err));
  return fd >= 0;
}

void Daemon::serve(std::uint64_t id, std::uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;  // closed earlier in this batch
  }
  Conn& conn = it->second;
  try {
    if ((events & (EPOLLHUP | EPOLLERR)) != 0 && conn.eof) {
      close_conn(id);  // half-closed before, fully gone now
      return;
    }
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !read_input(id, conn)) {
      return;
    }
    flush(id, conn);
  } catch (const std::exception& e) {
    log(std::string("connection dropped: ") + e.what());
    close_conn(id);
  }
}

bool Daemon::read_input(std::uint64_t id, Conn& conn) {
  char buf[16 * 1024];
  const sys::IoOutcome io = sys::read_nonblock(conn.fd.get(), buf, sizeof(buf));
  if (io.bytes > 0) {
    // One request per connection; anything sent after it is ignored.
    if (!conn.requested) {
      conn.reader.feed(buf, io.bytes);
      if (std::optional<std::string> payload = conn.reader.next()) {
        conn.requested = true;
        handle_request(id, conn, *payload);
      }
    }
    return true;
  }
  if (io.would_block) {
    return true;
  }
  if (!conn.requested) {
    conn.reader.at_eof();  // throws when the client left mid-frame
  }
  if (!conn.requested || conn.watcher) {
    close_conn(id);
    return false;
  }
  conn.eof = true;  // its reply or submit stream is still owed
  return true;
}

void Daemon::handle_request(std::uint64_t id, Conn& conn, const std::string& payload) {
  // Every op but submit and watch answers once and closes.
  conn.close_when_flushed = true;
  const auto reply = [&conn](const std::string& frame) { conn.out += encode_frame(frame); };
  try {
    report::JsonValue message = parse_message(payload);
    const report::JsonObject& obj = message.object();
    const report::JsonValue* op = report::find(obj, "op");
    if (op == nullptr) {
      reply(error_message("missing op"));
      return;
    }
    const std::string& name = op->str();
    if (config_.verbose) {
      log("op " + name);
    }

    if (name == "submit") {
      Job job;
      job.conn = id;
      if (const report::JsonValue* args_value = report::find(obj, "args")) {
        for (const auto& [key, value] : args_value->object()) {
          job.args.set(key, value.str());
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          reply(error_message("daemon is shutting down"));
          return;
        }
        job.id = next_job_id_++;
        const size_t position = queue_.size() + (running_job_ != 0 ? 1 : 0);
        // Queued before the job is visible to the executor, so the ack
        // precedes every frame the run streams.
        reply("{\"ok\":true,\"event\":\"queued\",\"job\":" + std::to_string(job.id) +
              ",\"position\":" + std::to_string(position) + "}");
        queue_.push_back(std::move(job));
      }
      conn.close_when_flushed = false;  // the executor's done frame closes it
      queue_cv_.notify_one();
      return;
    }
    if (name == "status") {
      reply(status_payload());
      return;
    }
    if (name == "results") {
      std::string results;
      {
        std::lock_guard<std::mutex> lock(mu_);
        results = last_results_json_;
      }
      reply("{\"ok\":true,\"results\":" +
            (results.empty() ? std::string("null") : embed(results)) + "}");
      return;
    }
    if (name == "trend") {
      reply(trend_payload(obj));
      return;
    }
    if (name == "watch") {
      // The connection becomes a push-only telemetry stream until the
      // client leaves or the daemon stops.
      {
        std::lock_guard<std::mutex> lock(out_mu_);
        watchers_[id];
      }
      conn.watcher = true;
      conn.close_when_flushed = false;
      reply("{\"ok\":true,\"event\":\"watching\"}");
      return;
    }
    if (name == "shutdown") {
      reply("{\"ok\":true,\"event\":\"shutting_down\"}");
      {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
      }
      queue_cv_.notify_all();
      shutdown_cv_.notify_all();
      return;
    }
    reply(error_message("unknown op: " + name));
  } catch (const std::exception& e) {
    reply(error_message(e.what()));
  }
}

void Daemon::flush(std::uint64_t id, Conn& conn) {
  for (;;) {
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
      if (conn.watcher) {
        refill_watcher(id, conn);
      }
      if (conn.out.empty()) {
        break;
      }
    }
    const sys::IoOutcome io =
        sys::write_nonblock(conn.fd.get(), conn.out.data() + conn.out_off,
                            conn.out.size() - conn.out_off);
    if (io.closed) {
      close_conn(id);
      return;
    }
    if (io.would_block) {
      break;
    }
    conn.out_off += io.bytes;
  }
  const bool pending = conn.out_off < conn.out.size();
  if (!pending && conn.close_when_flushed) {
    close_conn(id);
    return;
  }
  const std::uint32_t events = (conn.eof ? 0u : EPOLLIN) | (pending ? EPOLLOUT : 0u);
  if (!conn.registered) {
    epoll_.add(conn.fd.get(), events, id);
    conn.registered = true;
  } else if (events != conn.events) {
    epoll_.mod(conn.fd.get(), events, id);
  }
  conn.events = events;
}

void Daemon::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    return;
  }
  if (it->second.watcher) {
    std::lock_guard<std::mutex> lock(out_mu_);
    watchers_.erase(id);
  }
  // Explicit: a forked benchmark child may still hold a copy of the fd, and
  // then close() alone would leave it in the epoll set.
  if (it->second.registered) {
    epoll_.del(it->second.fd.get());
  }
  conns_.erase(it);
}

void Daemon::deliver() {
  std::vector<StreamFrame> frames;
  std::vector<std::uint64_t> touched;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    frames.swap(stream_out_);
    for (const auto& [id, ring] : watchers_) {
      if (!ring.frames.empty()) {
        touched.push_back(id);
      }
    }
  }
  for (StreamFrame& frame : frames) {
    auto it = conns_.find(frame.conn);
    if (it == conns_.end()) {
      continue;  // the submitter went away; the run goes on without it
    }
    it->second.out += encode_frame(frame.payload);
    it->second.close_when_flushed = frame.last;
    touched.push_back(frame.conn);
  }
  for (std::uint64_t id : touched) {
    serve(id, 0);
  }
}

void Daemon::refill_watcher(std::uint64_t id, Conn& conn) {
  std::deque<std::shared_ptr<const std::string>> frames;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    auto it = watchers_.find(id);
    if (it == watchers_.end()) {
      return;
    }
    frames.swap(it->second.frames);
    dropped = it->second.dropped;
  }
  const std::string tail = ",\"dropped\":" + std::to_string(dropped) + "}";
  for (const std::shared_ptr<const std::string>& body : frames) {
    conn.out += encode_frame(*body + tail);
  }
}

void Daemon::send(std::uint64_t conn, std::string payload, bool last) {
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    stream_out_.push_back({conn, std::move(payload), last});
  }
  post();
}

void Daemon::broadcast(const std::string& payload) {
  // Stored without the closing brace; refill_watcher appends "dropped".
  auto body = std::make_shared<const std::string>(payload, 0, payload.size() - 1);
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (watchers_.empty()) {
      return;
    }
    for (auto& [id, ring] : watchers_) {
      if (ring.frames.size() == kWatchRingFrames) {
        ring.frames.pop_front();
        ++ring.dropped;
        ++watch_dropped_;
      }
      ring.frames.push_back(body);
    }
  }
  post();
}

void Daemon::post() {
  // One wakeup per batch: while one is pending the loop has yet to drain.
  if (!wake_pending_.exchange(true)) {
    wake_.notify();
  }
}

std::string Daemon::status_payload() {
  std::size_t watcher_count = 0;
  std::uint64_t watch_dropped = 0;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    watcher_count = watchers_.size();
    watch_dropped = watch_dropped_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string state = running_job_ != 0 ? "running" : "idle";
  return "{\"ok\":true,\"state\":" + quoted(state) + ",\"running\":" + quoted(running_bench_) +
         ",\"bench_index\":" + std::to_string(running_bench_index_) +
         ",\"bench_total\":" + std::to_string(running_bench_total_) +
         ",\"job\":" + std::to_string(running_job_) +
         ",\"queued\":" + std::to_string(queue_.size()) +
         ",\"completed\":" + std::to_string(completed_) +
         ",\"watchers\":" + std::to_string(watcher_count) +
         ",\"watch_dropped\":" + std::to_string(watch_dropped) +
         ",\"socket\":" + quoted(config_.socket_path) +
         ",\"store\":" + quoted(config_.store_dir) + "}";
}

void Daemon::on_interval(const obs::IntervalFrame& frame) {
  {
    // Frame building is skipped entirely when nobody is watching — this
    // runs on a load-gen worker thread mid-measurement.
    std::lock_guard<std::mutex> lock(out_mu_);
    if (watchers_.empty()) {
      return;
    }
  }
  long job = 0;
  std::string bench;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = running_job_;
    bench = running_bench_;
  }
  broadcast("{\"event\":\"interval_stats\",\"job\":" + std::to_string(job) +
            ",\"bench\":" + quoted(bench) + ",\"source\":" + quoted(frame.source) +
            ",\"shard\":" + std::to_string(frame.shard) +
            ",\"window\":" + std::to_string(frame.window) +
            ",\"start_ms\":" + report::json_double(static_cast<double>(frame.start) / 1e6) +
            ",\"end_ms\":" + report::json_double(static_cast<double>(frame.end) / 1e6) +
            ",\"requests\":" + std::to_string(frame.requests) +
            ",\"errors\":" + std::to_string(frame.errors) +
            ",\"rps\":" + report::json_double(frame.rps) +
            ",\"p50_us\":" + report::json_double(frame.p50_ns / 1000.0) +
            ",\"p99_us\":" + report::json_double(frame.p99_ns / 1000.0) +
            ",\"p999_us\":" + report::json_double(frame.p999_ns / 1000.0) +
            ",\"total_requests\":" + std::to_string(frame.total_requests) + "}");
}

std::string Daemon::trend_payload(const report::JsonObject& request) {
  if (config_.store_dir.empty()) {
    return error_message("daemon has no trend store (--store)");
  }
  db::TrendStore store(config_.store_dir);
  std::vector<std::string> hosts = store.hosts();
  if (hosts.empty()) {
    return error_message("trend store is empty (no completed runs yet)");
  }
  // Explicit host filter, else this machine's shard, else the only/first.
  std::string host;
  if (const report::JsonValue* v = report::find(request, "host")) {
    host = v->str();
  } else {
    std::string mine = db::TrendStore::shard_name(query_system_info().label());
    for (const std::string& candidate : hosts) {
      if (candidate == mine) {
        host = candidate;
      }
    }
    if (host.empty()) {
      host = hosts.front();
    }
  }

  std::vector<db::TrendSeries> series;
  if (const report::JsonValue* v = report::find(request, "bench")) {
    series = store.series(host, v->str());
  } else {
    series = store.all_series(host);
  }
  if (const report::JsonValue* v = report::find(request, "metric")) {
    std::vector<db::TrendSeries> filtered;
    for (db::TrendSeries& s : series) {
      if (s.key == v->str()) {
        filtered.push_back(std::move(s));
      }
    }
    series = std::move(filtered);
  }

  std::vector<report::TrendRow> rows = report::analyze_trends(series);
  return "{\"ok\":true,\"host\":" + quoted(host) +
         ",\"table\":" + quoted(report::render_trend_table(rows)) +
         ",\"trend\":" + embed(report::trend_to_json(host, rows)) + "}";
}

void Daemon::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) {
          return;
        }
        continue;
      }
      if (stopping_) {
        // Drain: queued jobs are refused, not silently dropped.
        for (Job& refused : queue_) {
          send(refused.conn, error_message("daemon is shutting down"), /*last=*/true);
        }
        queue_.clear();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      running_job_ = job.id;
      running_bench_ = "(starting)";
    }
    execute(std::move(job));
  }
}

void Daemon::execute(Job job) {
  log("job " + std::to_string(job.id) + " starting");
  RunRequest request;
  int exit_code = 0;
  std::string failure;
  // Completion state must be visible before the "done" frame reaches the
  // client: a submitter that queries status the moment submit() returns
  // must see this job counted.
  const auto mark_done = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    running_job_ = 0;
    running_bench_.clear();
    running_bench_index_ = 0;
    running_bench_total_ = 0;
    ++completed_;
  };
  try {
    request = RunRequest::from_options(job.args);
    // Daemon defaults for knobs the request left unset: shared calibration
    // cache and the daemon's trend store.
    if (!job.args.has("cal-cache")) {
      request.cal_cache_path = config_.cal_cache_path;
    }
    if (request.trend_dir.empty()) {
      request.trend_dir = config_.store_dir;
    }

    ProgressFn progress = [&](const ServiceEvent& event) {
      switch (event.kind) {
        case ServiceEvent::Kind::kSuiteStart: {
          std::string warnings;
          for (const std::string& w : event.warnings) {
            if (!warnings.empty()) {
              warnings += ',';
            }
            warnings += quoted(w);
          }
          send(job.conn, "{\"event\":\"suite_start\",\"system\":" + quoted(event.system) +
                             ",\"total\":" + std::to_string(event.total) +
                             ",\"cal_warm\":" + (event.cal_warm ? "true" : "false") +
                             ",\"warnings\":[" + warnings + "]}");
          break;
        }
        case ServiceEvent::Kind::kBenchStart: {
          {
            std::lock_guard<std::mutex> lock(mu_);
            running_bench_ = event.name;
            running_bench_index_ = event.index;
            running_bench_total_ = event.total;
          }
          const std::string frame =
              "{\"event\":\"bench_start\",\"name\":" + quoted(event.name) +
              ",\"index\":" + std::to_string(event.index) +
              ",\"total\":" + std::to_string(event.total) + "}";
          send(job.conn, frame);
          broadcast(frame);  // watchers get suite progress markers too
          break;
        }
        case ServiceEvent::Kind::kBenchFinish: {
          const RunResult* r = event.result;
          send(job.conn,
               "{\"event\":\"bench_finish\",\"name\":" + quoted(event.name) +
                   ",\"index\":" + std::to_string(event.index) +
                   ",\"total\":" + std::to_string(event.total) +
                   ",\"status\":" + quoted(r != nullptr ? run_status_name(r->status) : "?") +
                   ",\"summary\":" + quoted(r != nullptr ? r->summary() : "") +
                   ",\"wall_ms\":" + report::json_double(r != nullptr ? r->wall_ms : 0) + "}");
          break;
        }
        case ServiceEvent::Kind::kSuiteEnd:
          break;  // folded into the "done" frame below
      }
    };

    RunArtifacts artifacts = service_.run(request, progress);
    exit_code = artifacts.exit_code();
    std::string batch_json = report::to_json(artifacts.batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_results_json_ = batch_json;
    }
    mark_done();
    send(job.conn,
         "{\"event\":\"done\",\"ok\":true,\"job\":" + std::to_string(job.id) +
             ",\"exit_code\":" + std::to_string(exit_code) +
             ",\"failed\":" + std::to_string(artifacts.failed) +
             ",\"metrics\":" + std::to_string(artifacts.metric_count) +
             ",\"wall_ms\":" + report::json_double(artifacts.total_wall_ms) +
             ",\"trend_seq\":" + std::to_string(artifacts.trend_seq) +
             ",\"gate_failed\":" + (artifacts.gate_failed ? "true" : "false") +
             ",\"results\":" + embed(batch_json) + "}",
         /*last=*/true);
    broadcast("{\"event\":\"job_done\",\"job\":" + std::to_string(job.id) + ",\"ok\":true}");
  } catch (const std::exception& e) {  // UsageError included: exit code 2 either way
    failure = e.what();
    mark_done();
    send(job.conn,
         "{\"event\":\"done\",\"ok\":false,\"job\":" + std::to_string(job.id) +
             ",\"exit_code\":2,\"error\":" + quoted(failure) + "}",
         /*last=*/true);
    broadcast("{\"event\":\"job_done\",\"job\":" + std::to_string(job.id) + ",\"ok\":false}");
  }
  log("job " + std::to_string(job.id) + " finished" +
      (failure.empty() ? " (exit " + std::to_string(exit_code) + ")" : ": " + failure));
}

}  // namespace lmb::svc
