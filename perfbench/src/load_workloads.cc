// echo_closed and rpc_open: lat::LoadServer (1 shard) driven by
// lat::run_load over 4 loopback connections, in rounds.
//
// Each round constructs a server, runs the generator on the calling thread
// pinned to the core after the server's (so the generator's thread CPU
// clock is the generator's cost), stops the server, and checks what both
// sides report.  A pass reports the quiet quartile of its rounds' throughput
// and latencies (harness.h) and the median of the rest: on a shared VM the
// CPU share drifts on a scale of seconds, and many short rounds keep a burst
// in some of them out of the figures.  The tail both report is p95:
// on a shared 4-vCPU KVM guest the echo p99 swung from 47 to 151 us over
// ten runs of the same code (rpc's from 240 to 809 us); p99 is still
// printed and a per-layer metric.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>

#include "perfbench/src/checks.h"
#include "perfbench/src/harness.h"
#include "src/core/topology.h"
#include "src/lat/load_gen.h"
#include "src/lat/load_server.h"

namespace perfbench {

namespace {

using lmb::Nanos;

constexpr int kConnections = 4;
constexpr std::uint32_t kMessageBytes = 64;
constexpr std::uint64_t kRpcWorkIters = 1000;  // LoadServer's lat_rpc_n default
constexpr double kRpcRate = 30'000.0;
constexpr Nanos kWarmup = 100 * lmb::kMillisecond;
constexpr double kRoundSeconds = 1.0;

struct LoadSpec {
  std::string workload;
  bool echo = true;
  lmb::lat::ArrivalMode arrival = lmb::lat::ArrivalMode::kClosedLoop;
  double rate = 0.0;
};

// Pins the calling thread to `cpu` for the scope's lifetime and restores its
// previous affinity on exit (cpu < 0: no pinning).
class PinScope {
 public:
  explicit PinScope(int cpu) {
    CPU_ZERO(&saved_);
    if (cpu >= 0 && ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
      pinned_ = lmb::pin_current_thread(cpu);
    }
  }
  ~PinScope() {
    if (pinned_) {
      ::sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// One round's figures: `named` under the workload's own names (the
// end-to-end set is selected from them after aggregation), `layer` per
// layer.  Both are empty when run_load threw.
struct Round {
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> named;
  std::vector<Metric> layer;
  std::uint64_t samples = 0;
};

double per(double value, double count) { return count > 0 ? value / count : 0.0; }

Round run_round(const LoadSpec& spec, const PassConfig& config, int index, Nanos duration,
                std::uint64_t parent) {
  Round out;
  SpanRecorder::Span round_span =
      span(config.spans, "bench", spec.workload + ".round", parent, static_cast<std::uint64_t>(index));
  // A traced round also lets the program add its own "load" events to the
  // same sink (LoadServer captures the constructing thread's scope).
  std::optional<lmb::obs::ObsScope> scope;
  if (config.spans != nullptr) {
    scope.emplace(&config.spans->sink(), false, spec.workload);
  }

  lmb::lat::LoadServerConfig server_cfg;
  server_cfg.protocol = spec.echo ? lmb::lat::ServerProtocol::kEcho : lmb::lat::ServerProtocol::kRpc;
  server_cfg.reply_bytes = kMessageBytes;
  server_cfg.work_iters = spec.echo ? 0 : kRpcWorkIters;
  server_cfg.shards = 1;

  const Nanos ctor_start = steady_ns();
  SpanRecorder::Span ctor_span =
      span(config.spans, "lat.server", "LoadServer", round_span.id(), static_cast<std::uint64_t>(index));
  lmb::lat::LoadServer server(server_cfg);
  ctor_span.end();
  const Nanos ctor_ns = steady_ns() - ctor_start;

  lmb::lat::LoadGenConfig gen;
  gen.port = server.port();
  gen.connections = kConnections;
  gen.protocol = spec.echo ? lmb::lat::ClientProtocol::kEcho : lmb::lat::ClientProtocol::kRpc;
  gen.request_bytes = kMessageBytes;
  gen.reply_bytes = kMessageBytes;
  gen.arrival = spec.arrival;
  gen.rate_per_sec = spec.rate;
  gen.duration = duration;
  gen.warmup = kWarmup;
  gen.seed = config.seed + static_cast<std::uint64_t>(index);
  gen.shards = 1;

  lmb::lat::LoadResult result;
  bool threw = false;
  ProcSample before;
  ProcSample after;
  Nanos gen_cpu = 0;
  Nanos load_wall = 0;
  {
    // The server's only shard pins to pin_order[0]; the generator takes the
    // next core, on this thread, so its CPU clock is the generator's cost.
    const std::vector<int> order = lmb::query_topology().pin_order();
    PinScope pin(order.size() > 1 ? order[1] : -1);
    SpanRecorder::Span load_span =
        span(config.spans, "lat.gen", "run_load", round_span.id(), static_cast<std::uint64_t>(index));
    before = ProcSample::now();
    const Nanos cpu_start = thread_cpu_ns();
    const Nanos call_start = steady_ns();
    try {
      result = lmb::lat::run_load(gen);
    } catch (const std::exception& e) {
      threw = true;
      out.failures.push_back(spec.workload + " round " + std::to_string(index) +
                             ": run_load threw: " + e.what());
    }
    load_wall = steady_ns() - call_start;
    gen_cpu = thread_cpu_ns() - cpu_start;
    after = ProcSample::now();
  }
  {
    SpanRecorder::Span stop_span =
        span(config.spans, "lat.server", "stop", round_span.id(), static_cast<std::uint64_t>(index));
    server.stop();
  }
  const lmb::lat::LoadServerStats stats = server.stats();

  if (threw) {
    out.failed = kConnections;
    return out;
  }

  LoadFacts facts;
  facts.echo = spec.echo;
  facts.connections_requested = kConnections;
  facts.connections_established = result.connections;
  facts.hist_count = result.rtt_hist.count();
  facts.requests = result.requests;
  facts.gen_total = result.total_requests;
  facts.request_bytes = kMessageBytes;
  facts.server_requests = stats.requests;
  facts.server_bytes_in = stats.bytes_in;
  facts.server_bytes_out = stats.bytes_out;
  std::vector<std::string> bad = check_load(facts);
  for (std::string& b : bad) {
    out.failures.push_back(spec.workload + " round " + std::to_string(index) + ": " + b);
  }
  // A failed check discredits every connection of the round; otherwise only
  // the connections that were lost or never established count.
  const std::uint64_t lost =
      static_cast<std::uint64_t>(kConnections - std::min(result.connections, kConnections)) +
      result.errors;
  out.failed = bad.empty() ? std::min<std::uint64_t>(lost, kConnections) : kConnections;

  const double served = static_cast<double>(
      spec.echo ? stats.bytes_out / kMessageBytes : stats.requests);
  const double gen_total = static_cast<double>(result.total_requests);
  const double p50_us = result.rtt_hist.percentile(50) / 1000.0;
  const double p95_us = result.rtt_hist.percentile(95) / 1000.0;
  const double p99_us = result.rtt_hist.percentile(99) / 1000.0;
  const double setup_s =
      static_cast<double>(ctor_ns + std::max<Nanos>(load_wall - kWarmup - result.elapsed, 0)) / 1e9;
  out.samples = result.rtt_hist.count();

  // Throughput and latencies take the quiet quartile over rounds; the
  // median over rounds of the tail is printed beside it, so a tail that
  // regresses in some rounds only still shows.
  out.named = {{"ops_per_s", result.ops_per_sec, "1/s", OverRounds::kQuietThroughput},
               {"lat_p50_us", p50_us, "us", OverRounds::kQuietLatency},
               {"lat_p95_us", p95_us, "us", OverRounds::kQuietLatency},
               {"lat_tail_rounds_median_us", p95_us, "us"},
               {"setup_s", setup_s, "s"}};
  if (spec.echo) {
    out.named.push_back({"lat_p99_us", p99_us, "us", OverRounds::kQuietLatency});
  }
  out.layer = {
      {"lat.server.cpu_ns_per_req", per(static_cast<double>(stats.loop_cpu_ns), served), "ns"},
      {"lat.server.wakeups_per_req", per(static_cast<double>(stats.wakeups), served), "count"},
      {"lat.server.bytes_out_per_req", per(static_cast<double>(stats.bytes_out), served), "B"},
      {"lat.gen.cpu_ns_per_req", per(static_cast<double>(gen_cpu), gen_total), "ns"},
      {"lat.gen.samples", static_cast<double>(result.rtt_hist.count()), "count"},
      {"lat.gen.p99_us", p99_us, "us"},
      {"lat.gen.p999_us", result.rtt_hist.percentile(99.9) / 1000.0, "us"},
  };
  if (!spec.echo) {
    out.layer.push_back({"lat.gen.achieved_ratio", result.ops_per_sec / spec.rate, "ratio"});
  }
  for (Metric& m : proc_deltas(before, after, gen_total, "req")) {
    out.layer.push_back(std::move(m));
  }
  return out;
}

PassResult run_load_pass(const LoadSpec& spec, const PassConfig& config) {
  PassResult out;
  SpanRecorder::Span pass_span = span(config.spans, "bench", spec.workload);
  const int rounds = std::max(1, static_cast<int>(std::lround(config.seconds / kRoundSeconds)));
  // Each round spends its share of the budget on warm-up, the connection
  // ramp and the measured window.
  const double round_s = config.seconds / rounds;
  const Nanos duration = std::max<Nanos>(
      static_cast<Nanos>((round_s - 0.15) * 1e9), 200 * lmb::kMillisecond);

  std::vector<std::vector<Metric>> named_rows;
  std::vector<std::vector<Metric>> layer_rows;
  std::uint64_t samples = 0;
  for (int r = 0; r < rounds; ++r) {
    Round round = run_round(spec, config, r, duration, pass_span.id());
    out.attempted += kConnections;
    out.failed += round.failed;
    for (std::string& f : round.failures) {
      out.check_failures.push_back(std::move(f));
    }
    if (!round.named.empty()) {
      named_rows.push_back(std::move(round.named));
      layer_rows.push_back(std::move(round.layer));
      samples += round.samples;
    }
  }
  const double rss = peak_rss_mb();
  out.named = aggregate_rows(named_rows);
  out.end_to_end = select_metrics(out.named, {{"ops_per_s", "ops_per_s"},
                                              {"lat_p50_us", "lat_p50_us"},
                                              {"lat_p95_us", "lat_tail_us"},
                                              {"setup_s", "setup_s"}});
  out.end_to_end.push_back({"peak_rss_mb", rss, "MB"});
  out.named.push_back({"error_rate", out.error_rate(), "ratio"});
  out.named.push_back({"peak_rss_mb", rss, "MB"});
  out.named.push_back({"samples", static_cast<double>(samples), "count"});
  out.named.push_back({"rounds", static_cast<double>(rounds), "count"});
  out.layer = aggregate_rows(layer_rows);
  return out;
}

}  // namespace

PassResult run_echo_closed(const PassConfig& config) {
  LoadSpec spec;
  spec.workload = "echo_closed";
  spec.echo = true;
  spec.arrival = lmb::lat::ArrivalMode::kClosedLoop;
  return run_load_pass(spec, config);
}

PassResult run_rpc_open(const PassConfig& config) {
  LoadSpec spec;
  spec.workload = "rpc_open";
  spec.echo = false;
  spec.arrival = lmb::lat::ArrivalMode::kOpenPoisson;
  spec.rate = kRpcRate;
  return run_load_pass(spec, config);
}

}  // namespace perfbench
