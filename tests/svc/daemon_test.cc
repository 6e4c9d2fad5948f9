// lmbenchd + client round trips against an in-process daemon wired to a
// registry of synthetic benchmarks.
#include "src/svc/daemon.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/clock.h"
#include "src/obs/interval_stream.h"
#include "src/svc/client.h"
#include "src/svc/wire.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"
#include "src/sys/socket.h"
#include "src/sys/temp.h"

namespace lmb::svc {
namespace {

using report::JsonValue;
using report::find;

// Gate for fake_gate: the benchmark parks until the test opens the gate, so
// status can be queried while a job is verifiably mid-run.
std::atomic<bool> gate_open{false};
std::atomic<bool> gate_entered{false};

// Must outlive the daemon (abandoned-thread rule in bench_service.h) and
// the daemon's threads, so both live for the whole test binary.
Registry& test_registry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    r->add(BenchmarkInfo{
        .name = "fake_lat",
        .category = "latency",
        .description = "synthetic latency",
        .run = [](const Options&) { return RunResult().add("us", 10.0, "us"); },
    });
    r->add(BenchmarkInfo{
        .name = "fake_bw",
        .category = "bandwidth",
        .description = "synthetic bandwidth",
        .run = [](const Options&) { return RunResult().add("mbs", 5000.0, "MB/s"); },
    });
    r->add(BenchmarkInfo{
        .name = "fake_stream",
        .category = "latency",
        .description = "publishes interval telemetry frames like a load bench",
        .run =
            [](const Options&) {
              auto& pub = obs::IntervalPublisher::global();
              for (int w = 0; w < 4; ++w) {
                obs::IntervalFrame f;
                f.source = "fake_stream/loopback";
                f.shard = 0;
                f.window = w;
                f.start = w * 10 * kMillisecond;
                f.end = (w + 1) * 10 * kMillisecond;
                f.requests = 100;
                f.total_requests = 100u * (w + 1);
                f.rps = 10'000.0;
                f.p50_ns = 20'000.0;
                f.p99_ns = 40'000.0;
                f.p999_ns = 50'000.0;
                pub.publish(f);
              }
              return RunResult().add("us", 1.0, "us");
            },
    });
    r->add(BenchmarkInfo{
        .name = "fake_gate",
        .category = "latency",
        .description = "parks until the test opens the gate",
        .run =
            [](const Options&) {
              gate_entered = true;
              while (!gate_open) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
              }
              return RunResult().add("us", 2.0, "us");
            },
    });
    return r;
  }();
  return *registry;
}

class DaemonTest : public ::testing::Test {
 protected:
  DaemonConfig config() {
    DaemonConfig c;
    c.socket_path = tmp_.path() + "/d.sock";
    c.store_dir = tmp_.path() + "/trends";
    c.cal_cache_path = tmp_.path() + "/cal.db";
    c.registry = &test_registry();
    return c;
  }
  std::map<std::string, std::string> quick_args() {
    return {{"only", "fake_lat,fake_bw"}, {"no-cal-cache", "true"}};
  }
  sys::TempDir tmp_;
};

TEST_F(DaemonTest, SubmitStreamsProgressAndReturnsResults) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  std::vector<std::string> events;
  JsonValue done = client.submit(quick_args(), [&](const JsonValue& frame) {
    if (const JsonValue* event = find(frame.object(), "event")) {
      events.push_back(event->str());
    }
  });

  // The stream carries queue ack, suite start, one finish per benchmark,
  // and the terminal frame.
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front(), "queued");
  EXPECT_EQ(events.back(), "done");
  EXPECT_EQ(std::count(events.begin(), events.end(), "bench_finish"), 2);

  const report::JsonObject& obj = done.object();
  EXPECT_EQ(static_cast<int>(find(obj, "exit_code")->number()), 0);
  EXPECT_EQ(static_cast<int>(find(obj, "metrics")->number()), 2);
  // The embedded results document is a full lmbenchpp.results.v1 batch.
  const JsonValue* results = find(obj, "results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(find(results->object(), "schema")->str(), "lmbenchpp.results.v1");
  EXPECT_EQ(results->object().at("results").array().size(), 2u);

  daemon.stop();
}

TEST_F(DaemonTest, TwoSubmitsBuildATwoPointTrendSeries) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  client.submit(quick_args());
  client.submit(quick_args());

  JsonValue trend = client.trend();
  const report::JsonObject& obj = trend.object();
  ASSERT_EQ(find(obj, "error"), nullptr);
  const JsonValue* series = find(find(obj, "trend")->object(), "series");
  ASSERT_NE(series, nullptr);
  ASSERT_FALSE(series->array().empty());
  for (const JsonValue& s : series->array()) {
    EXPECT_EQ(find(s.object(), "points")->array().size(), 2u);
  }
  daemon.stop();
}

TEST_F(DaemonTest, StatusAndResultsOps) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  JsonValue before = client.status();
  EXPECT_EQ(find(before.object(), "state")->str(), "idle");
  EXPECT_EQ(static_cast<int>(find(before.object(), "completed")->number()), 0);
  EXPECT_TRUE(find(client.results().object(), "results")->is_null());

  client.submit(quick_args());
  JsonValue after = client.status();
  EXPECT_EQ(static_cast<int>(find(after.object(), "completed")->number()), 1);
  EXPECT_FALSE(find(client.results().object(), "results")->is_null());
  daemon.stop();
}

TEST_F(DaemonTest, StatusReportsSuiteProgressMidRun) {
  gate_open = false;
  gate_entered = false;
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());

  std::thread submitter([&] {
    Client jobs(daemon.socket_path());
    jobs.submit({{"only", "fake_lat,fake_gate"}, {"no-cal-cache", "true"}});
  });
  // Wait until the gated benchmark is verifiably executing.
  for (int i = 0; i < 1000 && !gate_entered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(gate_entered.load()) << "fake_gate never started";

  JsonValue mid = client.status();
  const report::JsonObject& obj = mid.object();
  EXPECT_EQ(find(obj, "state")->str(), "running");
  EXPECT_EQ(find(obj, "running")->str(), "fake_gate");
  // bench_index is the running bench's 0-based run-order position — i.e. how
  // many benchmarks have completed.  fake_gate is second in the submitted
  // list, so one bench (fake_lat) is done.
  EXPECT_EQ(static_cast<int>(find(obj, "bench_index")->number()), 1);
  EXPECT_EQ(static_cast<int>(find(obj, "bench_total")->number()), 2);

  gate_open = true;
  submitter.join();
  JsonValue after = client.status();
  EXPECT_EQ(find(after.object(), "state")->str(), "idle");
  EXPECT_EQ(static_cast<int>(find(after.object(), "bench_total")->number()), 0);
  daemon.stop();
}

TEST_F(DaemonTest, WatchStreamsIntervalFramesFromARunningJob) {
  Daemon daemon(config());
  daemon.start();

  std::atomic<bool> watching{false};
  std::atomic<int> got{0};
  std::vector<std::string> sources;
  std::mutex sources_mu;
  std::thread watcher([&] {
    Client wclient(daemon.socket_path());
    got = wclient.watch(
        [&](const JsonValue& frame) {
          const JsonValue* event = find(frame.object(), "event");
          if (event == nullptr) {
            return;
          }
          if (event->str() == "watching") {
            watching = true;
          } else if (event->str() == "interval_stats") {
            std::lock_guard<std::mutex> lock(sources_mu);
            sources.push_back(find(frame.object(), "source")->str());
          }
        },
        /*max_frames=*/3);
  });
  // The watcher must be registered before the job publishes frames.
  for (int i = 0; i < 1000 && !watching; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(watching.load()) << "watch ack never arrived";

  // A watcher shows up in status.
  Client client(daemon.socket_path());
  JsonValue status = client.status();
  EXPECT_GE(static_cast<int>(find(status.object(), "watchers")->number()), 1);

  client.submit({{"only", "fake_stream"}, {"no-cal-cache", "true"}});
  watcher.join();

  EXPECT_GE(got.load(), 3) << "acceptance: >= 3 interval_stats frames during the job";
  std::lock_guard<std::mutex> lock(sources_mu);
  ASSERT_GE(sources.size(), 3u);
  for (const std::string& s : sources) {
    EXPECT_EQ(s, "fake_stream/loopback");
  }
  daemon.stop();
}

TEST_F(DaemonTest, UnknownBenchmarkSubmissionFailsWithUsageExitCode) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  JsonValue done = client.submit({{"only", "lat_typo"}});
  const report::JsonObject& obj = done.object();
  EXPECT_EQ(static_cast<int>(find(obj, "exit_code")->number()), 2);
  EXPECT_NE(find(obj, "error")->str().find("no such benchmark"), std::string::npos);
  daemon.stop();
}

TEST_F(DaemonTest, ShutdownOpStopsTheDaemon) {
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  EXPECT_TRUE(daemon.running());
  client.shutdown();
  daemon.wait();  // returns because the shutdown op set the flag
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST_F(DaemonTest, UnknownOpAnswersInBandError) {
  Daemon daemon(config());
  daemon.start();
  sys::UnixStream stream = sys::UnixStream::connect(daemon.socket_path(), 2000);
  write_frame(stream.fd(), "{\"op\":\"dance\"}");
  std::optional<std::string> payload = read_frame(stream.fd());
  ASSERT_TRUE(payload.has_value());
  JsonValue response = parse_message(*payload);
  EXPECT_FALSE(find(response.object(), "ok")->boolean());
  daemon.stop();
}

TEST_F(DaemonTest, RequestSplitAcrossTwoWritesIsAnswered) {
  // The loop reads a new connection before it registers it; a request that
  // is not complete by then must still be answered once the rest arrives.
  Daemon daemon(config());
  daemon.start();
  sys::UnixStream stream = sys::UnixStream::connect(daemon.socket_path(), 2000);
  const std::string frame = encode_frame("{\"op\":\"status\"}");
  stream.send_all(frame.data(), 4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stream.send_all(frame.data() + 4, frame.size() - 4);
  std::optional<std::string> payload = read_frame_bounded(stream.fd(), 2000, 1000);
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(find(parse_message(*payload).object(), "ok")->boolean());
  daemon.stop();
}

// Threads and VmSize (KiB) from /proc/self/status.
struct ProcStatus {
  long threads = 0;
  long vmsize_kb = 0;
};

ProcStatus proc_status() {
  ProcStatus st;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      in >> st.threads;
    } else if (key == "VmSize:") {
      in >> st.vmsize_kb;
    }
  }
  return st;
}

// Entries in /proc/self/fd: this process's open descriptors.  Waits a
// little first, because the daemon closes a connection just after the
// client has read its reply.
int open_fds() {
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST_F(DaemonTest, ThousandsOfStatusCallsKeepFdsVmSizeAndThreadsFlat) {
  // Regression: a thread per connection, joined only at stop(), left an
  // 8 MiB stack mapping behind per call.  The descriptor count shows that
  // a connection the loop answers without registering it with epoll is
  // still closed.
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  for (int i = 0; i < 200; ++i) {  // warm-up: first-use allocations
    ASSERT_TRUE(find(client.status().object(), "ok")->boolean());
  }
  const ProcStatus before = proc_status();
  const int fds_before = open_fds();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(find(client.status().object(), "ok")->boolean()) << "call " << i;
  }
  const ProcStatus after = proc_status();
  EXPECT_EQ(open_fds(), fds_before);
  EXPECT_EQ(after.threads, before.threads);
  EXPECT_LT(after.vmsize_kb - before.vmsize_kb, 16 * 1024)
      << "VmSize grew from " << before.vmsize_kb << " to " << after.vmsize_kb << " KiB";
  daemon.stop();
}

TEST_F(DaemonTest, StopOnAnIdleDaemonIsPrompt) {
  // stop() wakes the event loop directly; it used to wait out a 200 ms
  // accept poll.
  Daemon daemon(config());
  daemon.start();
  Client client(daemon.socket_path());
  ASSERT_TRUE(find(client.status().object(), "ok")->boolean());
  const auto t0 = std::chrono::steady_clock::now();
  daemon.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(took, std::chrono::milliseconds(100))
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count() << " ms";
}

// CPU time (user + system) this process has used so far.
std::chrono::microseconds process_cpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return std::chrono::seconds(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         std::chrono::microseconds(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Lowers RLIMIT_NOFILE so that no new descriptor can be opened, and puts
// the old limit back on destruction.
class NoFreeDescriptors {
 public:
  NoFreeDescriptors() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ::close(lowest_free);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free);
    ::setrlimit(RLIMIT_NOFILE, &tight);
  }
  ~NoFreeDescriptors() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

TEST_F(DaemonTest, AtTheFdLimitConnectionsAreShedNotSpunOn) {
  // Regression: accept4 failing with EMFILE left the connection pending on
  // the level-triggered listener, and the loop burned a core retrying it.
  Daemon daemon(config());
  daemon.start();
  sys::UniqueFd client(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", daemon.socket_path().c_str());
  {
    NoFreeDescriptors limit;
    ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // the accept attempt

    const auto cpu_before = process_cpu();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto cpu_used = process_cpu() - cpu_before;
    EXPECT_LT(cpu_used, std::chrono::milliseconds(20))
        << cpu_used.count() << " us of CPU in a 200 ms idle window";

    // The daemon could not take the connection; the client is told so
    // with EOF instead of being left hanging.
    pollfd pfd{client.get(), POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 1000), 1);
    char byte = 0;
    EXPECT_EQ(::recv(client.get(), &byte, 1, MSG_DONTWAIT), 0);
  }
  // Descriptors are free again: the daemon serves as before.
  Client again(daemon.socket_path());
  EXPECT_TRUE(find(again.status().object(), "ok")->boolean());
  daemon.stop();
}

// Suite wall time and loopback ops/s of one submitted load job.
struct LoadJob {
  double wall_ms = 0;
  double rps = 0;
};

LoadJob parse_load_job(const JsonValue& done) {
  LoadJob job;
  job.wall_ms = find(done.object(), "wall_ms")->number();
  const JsonValue* results = find(done.object(), "results");
  for (const JsonValue& r : find(results->object(), "results")->array()) {
    for (const JsonValue& m : find(r.object(), "metrics")->array()) {
      if (find(m.object(), "key")->str() == "loopback_rps") {
        job.rps = find(m.object(), "value")->number();
      }
    }
  }
  return job;
}

TEST(DaemonLoadTest, StalledWatcherDoesNotSlowTheMeasurement) {
  // Regression: interval frames were written to watchers with blocking
  // writes on the load generator's thread, so one watcher that stopped
  // reading stalled the measurement it was watching.
  sys::TempDir tmp;
  DaemonConfig c;
  c.socket_path = tmp.path() + "/d.sock";
  c.store_dir = tmp.path() + "/trends";
  c.cal_cache_path = tmp.path() + "/cal.db";
  Daemon daemon(c);  // the global registry: a real lat_tcp_n
  daemon.start();
  Client client(daemon.socket_path());
  // Think time keeps the job to about one core, so it does not disturb
  // timing-sensitive suites running beside this one; 800 one-ms windows
  // overflow the stalled watcher's socket buffer and ring several times.
  const std::map<std::string, std::string> job = {
      {"only", "lat_tcp_n"},   {"quick", "true"},       {"net", "loopback"},
      {"connections", "4"},    {"think", "1000"},       {"duration", "800"},
      {"interval-ms", "1"},    {"no-cal-cache", "true"}};
  const LoadJob alone = parse_load_job(client.submit(job));
  ASSERT_GT(alone.rps, 0);

  // A watcher with a 4 KiB receive buffer that never reads.
  sys::UnixStream stalled = sys::UnixStream::connect(daemon.socket_path(), 2000);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(stalled.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
  write_frame(stalled.fd(), "{\"op\":\"watch\"}");
  for (int i = 0; i < 1000 && find(client.status().object(), "watchers")->number() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(find(client.status().object(), "watchers")->number(), 1);

  std::future<JsonValue> watched =
      std::async(std::launch::async, [&] { return Client(daemon.socket_path()).submit(job); });
  // A stalled measurement would never finish: past a generous deadline,
  // drain the watcher so it does, and let the timing assertions fail.
  const auto deadline = std::chrono::milliseconds(static_cast<long>(alone.wall_ms * 10 + 10'000));
  if (watched.wait_for(deadline) != std::future_status::ready) {
    ADD_FAILURE() << "job still running after " << deadline.count() << " ms";
    while (watched.wait_for(std::chrono::milliseconds(0)) != std::future_status::ready) {
      try {
        read_frame_bounded(stalled.fd(), 100, 1000);
      } catch (const sys::SysError&) {
        // nothing pending this time round; keep draining until the job ends
      }
    }
  }
  const JsonValue watched_done = watched.get();
  const double watched_job = find(watched_done.object(), "job")->number();
  const LoadJob with_watcher = parse_load_job(watched_done);
  EXPECT_LT(with_watcher.wall_ms, alone.wall_ms * 1.5 + 500)
      << "alone " << alone.wall_ms << " ms, with a stalled watcher " << with_watcher.wall_ms;
  EXPECT_GT(with_watcher.rps, alone.rps * 0.5)
      << "alone " << alone.rps << " ops/s, with a stalled watcher " << with_watcher.rps;

  // The ring dropped frames instead of blocking, and says so: in status,
  // and in the frames the watcher gets once it reads again (up to the
  // watched job's job_done; the first job's may arrive before it).
  JsonValue status = client.status();
  const JsonValue* watch_dropped = find(status.object(), "watch_dropped");
  ASSERT_NE(watch_dropped, nullptr);
  EXPECT_GT(watch_dropped->number(), 0);
  double dropped = 0;
  for (;;) {
    std::optional<std::string> payload = read_frame_bounded(stalled.fd(), 5000, 1000);
    ASSERT_TRUE(payload.has_value()) << "stream ended before job_done";
    JsonValue frame = parse_message(*payload);
    if (const JsonValue* d = find(frame.object(), "dropped")) {
      dropped = d->number();
    }
    if (find(frame.object(), "event")->str() == "job_done" &&
        find(frame.object(), "job")->number() == watched_job) {
      break;
    }
  }
  EXPECT_GT(dropped, 0);
  daemon.stop();
}

TEST(DaemonClientTest, ConnectFailureIsSysErrorNotHang) {
  sys::TempDir tmp;
  Client client(tmp.path() + "/nobody.sock", /*connect_timeout_ms=*/300);
  EXPECT_THROW(client.status(), sys::SysError);
}

TEST(DaemonClientTest, DaemonKilledMidFrameTimesOutInsteadOfHanging) {
  // The bug this PR fixes: a daemon that dies after writing part of a reply
  // frame — here simulated by a "daemon" that sends 2 of the 4 length-prefix
  // bytes and then goes silent with the socket open — used to hang the
  // client in read_full forever.  The bounded read turns it into a clean
  // SysError(ETIMEDOUT), which lmbench_client maps to exit code 5.
  sys::TempDir tmp;
  const std::string path = tmp.path() + "/stall.sock";
  sys::UnixListener listener(path);
  std::thread fake_daemon([&listener] {
    if (!sys::poll_readable(listener.fd(), 5000)) {
      return;
    }
    sys::UnixStream conn = listener.accept();
    // Consume the client's request so the failure is in our reply, then
    // write a torn frame and stall (keep the connection open).
    std::optional<std::string> req = read_frame(conn.fd());
    ASSERT_TRUE(req.has_value());
    const unsigned char torn[] = {0, 0};
    ASSERT_EQ(::write(conn.fd(), torn, sizeof(torn)), 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });

  Client client(path, /*connect_timeout_ms=*/2000, /*stall_timeout_ms=*/100);
  try {
    client.status();
    FAIL() << "expected SysError(ETIMEDOUT)";
  } catch (const sys::SysError& e) {
    EXPECT_EQ(e.error_code(), ETIMEDOUT);
  }
  fake_daemon.join();
}

}  // namespace
}  // namespace lmb::svc
