// daemon_ops: in-process svc::Daemon instances on sockets and trend stores
// inside the work directory, driven by svc::Client one connection at a time.
//
// The pass runs daemon rounds until its time is spent.  A round times the
// set-up of a daemon (construction + start() up to the first good
// `status`), makes one untimed warm-up submit, then runs the measured mix:
// kCyclesPerRound cycles of kStatusPerCycle `status` calls, one `submit` of
// `--quick --only=lat_syscall` and one `results`.  The 50:1:1 mix is a
// chosen ratio, not one measured from users.  The round then times
// kSetupsPerRound - 1 more set-ups on other sockets and stops all its
// daemons.  Every op opens its own connection, so each round records the
// daemon's per-connection thread-stack growth as it is; the round length
// bounds the unjoined stacks one daemon accumulates to what
// vm.max_map_count allows.
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/harness.h"
#include "src/svc/client.h"
#include "src/svc/daemon.h"

namespace perfbench {

namespace {

using lmb::Nanos;
namespace fs = std::filesystem;
namespace json = lmb::report;

constexpr int kSetupsPerRound = 4;
constexpr int kStatusPerCycle = 50;
constexpr int kCyclesPerRound = 40;
constexpr const char* kSubmitBench = "lat_syscall";

bool reply_ok(const json::JsonValue& reply) {
  const json::JsonValue* ok = json::find(reply.object(), "ok");
  return ok != nullptr && ok->boolean();
}

// Calibration-cache hits the daemon's run reported in its done frame's
// embedded results.v1 timing block (NaN when absent).
double done_cal_hits(const json::JsonValue& done) {
  try {
    const json::JsonValue* results = json::find(done.object(), "results");
    const json::JsonValue* timing =
        results != nullptr ? json::find(results->object(), "timing") : nullptr;
    const json::JsonValue* hits =
        timing != nullptr && !timing->is_null() ? json::find(timing->object(), "cal_hits") : nullptr;
    return hits != nullptr ? hits->number() : std::nan("");
  } catch (const std::exception&) {
    return std::nan("");
  }
}

double done_wall_ms(const json::JsonValue& done) {
  const json::JsonValue* wall = json::find(done.object(), "wall_ms");
  return wall != nullptr ? json::number_or_nan(*wall) : std::nan("");
}

// Constructs and starts a daemon and waits for its first good `status`.
// Returns the daemon (null if it never answered) and the seconds that took.
std::pair<std::unique_ptr<lmb::svc::Daemon>, double> start_daemon(
    const lmb::svc::DaemonConfig& dc) {
  const Nanos start = steady_ns();
  auto daemon = std::make_unique<lmb::svc::Daemon>(dc);
  daemon->start();
  lmb::svc::Client client(dc.socket_path);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    try {
      if (reply_ok(client.status())) {
        return {std::move(daemon), static_cast<double>(steady_ns() - start) / 1e9};
      }
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon->stop();
  return {nullptr, 0.0};
}

// Stops every daemon at once: each stop() waits out its accept thread's
// 200 ms poll, which one after another would add up.
void stop_all(std::vector<std::unique_ptr<lmb::svc::Daemon>>& daemons) {
  std::vector<std::thread> stoppers;
  for (std::unique_ptr<lmb::svc::Daemon>& d : daemons) {
    stoppers.emplace_back([&d] { d->stop(); });
  }
  for (std::thread& t : stoppers) {
    t.join();
  }
  daemons.clear();
}

}  // namespace

// Each round gives one row of metrics; a pass reports the quiet quartile
// over its rounds of throughput and latencies (harness.h) and the median of
// the rest, which keeps bursts of interference from other tenants of the
// machine out of the figures.  The end-to-end latencies follow one kind of
// op each, so they do not depend on the mix's ratio: lat_p50_us is the
// `status` median, lat_tail_us the median `submit` turnaround, the wait for
// a job.  status_p99_us, which follows scheduling noise (180 to 600 us over
// ten runs of the same code on a shared VM), is printed beside them.
PassResult run_daemon_ops(const PassConfig& config) {
  PassResult out;
  SpanRecorder::Span pass_span = span(config.spans, "bench", "daemon_ops");
  auto fail = [&](const std::string& what) {
    ++out.failed;
    out.check_failures.push_back(what);
  };
  const std::map<std::string, std::string> submit_args = {{"quick", "true"},
                                                          {"only", kSubmitBench}};

  std::vector<std::vector<Metric>> named_rows;
  std::vector<std::vector<Metric>> layer_rows;
  double status_samples = 0;
  double submits = 0;
  std::uint64_t op = 0;
  const ProcSample before = ProcSample::now();
  const Nanos deadline = before.wall_ns + static_cast<Nanos>(config.seconds * 1e9);
  for (std::uint64_t index = 0; index == 0 || steady_ns() < deadline; ++index) {
    const fs::path dir = config.workdir / ("daemon-" + std::to_string(index));
    fs::create_directories(dir);
    lmb::svc::DaemonConfig dc;
    dc.store_dir = (dir / "trends").string();
    // Shared by every round's daemon, so only the first warm-up calibrates.
    dc.cal_cache_path = (config.workdir / "cal.db").string();

    SpanRecorder::Span round_span = span(config.spans, "bench", "daemon_ops.round", pass_span.id(), index);
    // The round's daemons, the first serving the mix, each on its own
    // socket; every one's set-up is timed.
    std::vector<std::unique_ptr<lmb::svc::Daemon>> daemons;
    std::vector<double> setups;
    auto set_up = [&] {
      dc.socket_path = (dir / ("d" + std::to_string(daemons.size()) + ".sock")).string();
      SpanRecorder::Span s = span(config.spans, "svc", "Daemon.start", round_span.id(), index);
      auto [daemon, setup_s] = start_daemon(dc);
      ++out.attempted;
      if (daemon == nullptr) {
        fail("daemon never answered status after start()");
        return false;
      }
      setups.push_back(setup_s);
      daemons.push_back(std::move(daemon));
      return true;
    };
    if (!set_up()) {
      break;
    }
    lmb::svc::Client client(dc.socket_path);

    ++out.attempted;
    try {
      SpanRecorder::Span s = span(config.spans, "svc.client", "submit.warmup", round_span.id(), index);
      if (std::optional<std::string> bad = check_submit_done(client.submit(submit_args))) {
        fail("warm-up " + *bad);
      }
    } catch (const std::exception& e) {
      fail(std::string("warm-up submit threw: ") + e.what());
    }

    std::vector<double> status_us, submit_ms, job_overhead_ms, cal_hits;
    const ProcSample mix_start = ProcSample::now();
    for (int cycle = 0; cycle < kCyclesPerRound; ++cycle) {
      for (int i = 0; i < kStatusPerCycle; ++i, ++op) {
        ++out.attempted;
        SpanRecorder::Span s = span(config.spans, "svc.client", "status", round_span.id(), op);
        const Nanos t0 = steady_ns();
        try {
          const bool ok = reply_ok(client.status());
          status_us.push_back(static_cast<double>(steady_ns() - t0) / 1e3);
          if (!ok) {
            fail("status returned ok:false");
          }
        } catch (const std::exception& e) {
          fail(std::string("status threw: ") + e.what());
        }
      }
      ++out.attempted;
      {
        SpanRecorder::Span s = span(config.spans, "svc.client", "submit", round_span.id(), op++);
        const Nanos t0 = steady_ns();
        try {
          const json::JsonValue done = client.submit(submit_args);
          const double turnaround_ms = static_cast<double>(steady_ns() - t0) / 1e6;
          if (std::optional<std::string> bad = check_submit_done(done)) {
            fail(*bad);
          } else {
            submit_ms.push_back(turnaround_ms);
            job_overhead_ms.push_back(turnaround_ms - done_wall_ms(done));
            cal_hits.push_back(done_cal_hits(done));
          }
        } catch (const std::exception& e) {
          fail(std::string("submit threw: ") + e.what());
        }
      }
      ++out.attempted;
      {
        SpanRecorder::Span s = span(config.spans, "svc.client", "results", round_span.id(), op++);
        try {
          if (std::optional<std::string> bad = check_results_reply(client.results(), kSubmitBench)) {
            fail(*bad);
          }
        } catch (const std::exception& e) {
          fail(std::string("results threw: ") + e.what());
        }
      }
    }
    const ProcSample mix_end = ProcSample::now();
    // The round's other set-ups, while the first daemon idles; then every
    // daemon of the round stops at once.
    while (static_cast<int>(daemons.size()) < kSetupsPerRound && set_up()) {
    }
    {
      SpanRecorder::Span s = span(config.spans, "svc", "Daemon.stop", round_span.id(), index);
      stop_all(daemons);
    }
    if (status_us.empty() || submit_ms.empty()) {
      continue;  // every op failed; the failures are counted
    }
    status_samples += static_cast<double>(status_us.size());
    submits += static_cast<double>(submit_ms.size());
    const double mix_ops = kCyclesPerRound * (kStatusPerCycle + 2);
    const double submit_p50_ms = median(submit_ms);
    named_rows.push_back({
        {"ops_per_s", mix_ops / (static_cast<double>(mix_end.wall_ns - mix_start.wall_ns) / 1e9),
         "1/s", OverRounds::kQuietThroughput},
        {"status_p50_us", percentile(status_us, 50), "us", OverRounds::kQuietLatency},
        {"status_p95_us", percentile(status_us, 95), "us", OverRounds::kQuietLatency},
        {"status_p99_us", percentile(status_us, 99), "us", OverRounds::kQuietLatency},
        {"submit_p50_ms", submit_p50_ms, "ms", OverRounds::kQuietLatency},
        {"lat_tail_rounds_median_us", submit_p50_ms * 1e3, "us"},
        {"setup_s", median(setups), "s"},
    });
    layer_rows.push_back({
        {"svc.job_overhead_ms", median(job_overhead_ms), "ms"},
        {"svc.threads_end", static_cast<double>(mix_end.threads), "count"},
        {"svc.vmsize_growth_kb_per_op", (mix_end.vmsize_kb - mix_start.vmsize_kb) / mix_ops, "KiB"},
        {"core.cal_hits", median(cal_hits), "count"},
    });
  }
  const ProcSample after = ProcSample::now();

  const double rss = peak_rss_mb();
  out.named = aggregate_rows(named_rows);
  out.end_to_end = select_metrics(out.named, {{"ops_per_s", "ops_per_s"},
                                              {"status_p50_us", "lat_p50_us"},
                                              {"setup_s", "setup_s"}});
  if (const Metric* submit = find_metric(out.named, "submit_p50_ms")) {
    out.end_to_end.push_back({"lat_tail_us", submit->value * 1e3, "us"});
    out.end_to_end.push_back({"peak_rss_mb", rss, "MB"});
  }
  out.named.push_back({"error_rate", out.error_rate(), "ratio"});
  out.named.push_back({"peak_rss_mb", rss, "MB"});
  out.named.push_back({"status_samples", status_samples, "count"});
  out.named.push_back({"submits", submits, "count"});
  out.named.push_back({"rounds", static_cast<double>(named_rows.size()), "count"});
  out.layer = aggregate_rows(layer_rows);
  for (Metric& m : proc_deltas(before, after, static_cast<double>(op), "op")) {
    out.layer.push_back(std::move(m));
  }
  return out;
}

}  // namespace perfbench
