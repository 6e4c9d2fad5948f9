// suite_quick: svc::BenchService::run over every registered benchmark in
// quick mode, jobs=1, each run with a fresh (cold) calibration cache, a
// fresh trend store and a results.v1 file — what a user of
// `run_suite --quick` waits for.  Runs repeat until the time budget is
// spent.  Throughput counts benchmarks; latency is that of a whole suite
// run, the wait a user sees: the median and third quartile of run walls.
// A run's wall is bimodal (lat_connect early-stops at ~0.5 s or runs its
// ~1 s budget), so the slowest run flips with one slow run; percentiles
// over pooled per-benchmark walls sit on cliffs between the clusters of
// fixed-window benchmarks.  Per-benchmark walls are per-layer metrics.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "perfbench/src/checks.h"
#include "perfbench/src/harness.h"
#include "src/svc/bench_service.h"

namespace perfbench {

namespace {

using lmb::Nanos;
namespace fs = std::filesystem;

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Metric-name-safe form of a benchmark name.
std::string safe_name(std::string name) {
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || c == '-';
    if (!ok) {
      c = '_';
    }
  }
  return name;
}

// Time the timing engine spent in each phase, from the program's own
// lmbenchpp.trace.v1 events: calibration probes (including cache probes),
// warm-up runs, and measured repetitions.
struct PhaseTotals {
  double calibration_ms = 0;
  double warmup_ms = 0;
  double measure_ms = 0;
};

PhaseTotals phase_totals(const std::vector<lmb::obs::TraceEvent>& events) {
  PhaseTotals t;
  for (const lmb::obs::TraceEvent& e : events) {
    if (e.dur < 0) {
      continue;
    }
    const double ms = static_cast<double>(e.dur) / 1e6;
    if (e.cat == "calibration" && (e.name == "probe" || e.name == "cache_probe")) {
      t.calibration_ms += ms;
    } else if (e.cat == "timing" && e.name == "warmup") {
      t.warmup_ms += ms;
    } else if (e.cat == "timing" && e.name == "rep") {
      t.measure_ms += ms;
    }
  }
  return t;
}

}  // namespace

PassResult run_suite_quick(const PassConfig& config) {
  PassResult out;
  SpanRecorder::Span pass_span = span(config.spans, "bench", "suite_quick");
  const Nanos start = steady_ns();
  const Nanos budget = static_cast<Nanos>(config.seconds * 1e9);

  std::vector<double> setup_s;
  std::vector<double> run_wall_s;
  std::vector<double> run_overhead_ms;
  std::vector<double> run_peak_rss_mb;
  std::vector<double> cal_misses;
  std::vector<double> calibration_ms, warmup_ms, measure_ms, fixed_ms;
  std::map<std::string, std::vector<double>> bench_wall_ms;
  double bench_count = 0;
  double benchmarks_per_run = 0;

  const ProcSample before = ProcSample::now();
  int runs = 0;
  while (true) {
    const Nanos elapsed = steady_ns() - start;
    // Start another run only while at least half a run's time is left.
    const Nanos typical = runs == 0 ? 0 : elapsed / runs;
    if (runs > 0 && elapsed + typical / 2 > budget) {
      break;
    }
    const fs::path dir = config.workdir / ("suite-" + std::to_string(runs));
    fs::create_directories(dir);
    lmb::svc::RunRequest request;
    request.bench_options.set("quick", "true");
    request.jobs = 1;
    request.cal_cache_path = (dir / "cal.db").string();
    request.trend_dir = (dir / "trends").string();
    request.json_path = (dir / "results.json").string();
    request.collect_trace = config.spans != nullptr;

    SpanRecorder::Span run_span =
        span(config.spans, "svc", "suite_run", pass_span.id(), static_cast<std::uint64_t>(runs));
    const Nanos setup_start = steady_ns();
    std::optional<SpanRecorder::Span> setup_span;
    setup_span.emplace(config.spans, "svc", "BenchService", run_span.id(),
                       static_cast<std::uint64_t>(runs));
    lmb::svc::BenchService service;
    Nanos setup_ns = -1;
    Nanos suite_start_ts = 0;  // harness trace time of kSuiteStart
    Nanos bench_start = 0;
    std::optional<SpanRecorder::Span> bench_span;
    double bench_sum_ms = 0;
    std::uint64_t bad_benches = 0;
    lmb::svc::ProgressFn progress = [&](const lmb::svc::ServiceEvent& e) {
      switch (e.kind) {
        case lmb::svc::ServiceEvent::Kind::kSuiteStart:
          setup_ns = steady_ns() - setup_start;
          setup_span.reset();
          if (config.spans != nullptr) {
            suite_start_ts = config.spans->sink().timestamp();
          }
          break;
        case lmb::svc::ServiceEvent::Kind::kBenchStart:
          bench_span.emplace(config.spans, "core", e.name, run_span.id(),
                             static_cast<std::uint64_t>(e.index));
          bench_start = steady_ns();
          break;
        case lmb::svc::ServiceEvent::Kind::kBenchFinish: {
          const double wall_ms = static_cast<double>(steady_ns() - bench_start) / 1e6;
          bench_span.reset();
          bench_sum_ms += wall_ms;
          bench_wall_ms[e.name].push_back(wall_ms);
          ++bench_count;
          if (e.result == nullptr) {
            ++bad_benches;
            out.check_failures.push_back(e.name + ": no result");
          } else if (std::optional<std::string> bad = check_suite_result(*e.result)) {
            ++bad_benches;
            out.check_failures.push_back(*bad);
          }
          break;
        }
        case lmb::svc::ServiceEvent::Kind::kSuiteEnd:
          break;
      }
    };

    reset_peak_rss();
    const Nanos call_start = steady_ns();
    lmb::svc::RunArtifacts artifacts;
    try {
      artifacts = service.run(request, progress);
    } catch (const std::exception& e) {
      out.check_failures.push_back(std::string("BenchService::run threw: ") + e.what());
      out.attempted += 1;
      out.failed += 1;
      ++runs;
      continue;
    }
    const double wall_s = static_cast<double>(steady_ns() - call_start) / 1e9;
    run_peak_rss_mb.push_back(peak_since_reset_mb());
    run_span.end();
    ++runs;

    const std::uint64_t total = artifacts.batch.results.size();
    out.attempted += total;
    if (std::optional<std::string> bad =
            check_results_json(artifacts.batch.results, read_text(request.json_path))) {
      out.check_failures.push_back(*bad);
      bad_benches = total;  // the written record of every benchmark is wrong
    }
    out.failed += std::min(bad_benches, total);

    benchmarks_per_run = static_cast<double>(total);
    setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
    run_wall_s.push_back(wall_s);
    run_overhead_ms.push_back(wall_s * 1e3 - bench_sum_ms);
    cal_misses.push_back(artifacts.cal_misses);
    if (config.spans != nullptr) {
      const PhaseTotals phases = phase_totals(artifacts.trace_events);
      calibration_ms.push_back(phases.calibration_ms);
      warmup_ms.push_back(phases.warmup_ms);
      measure_ms.push_back(phases.measure_ms);
      fixed_ms.push_back(bench_sum_ms - phases.calibration_ms - phases.warmup_ms -
                         phases.measure_ms);
      // Keep the program's events beside the harness spans, shifted onto
      // the harness timeline: the service emits clock/select right after
      // kSuiteStart.
      Nanos offset = 0;
      for (const lmb::obs::TraceEvent& e : artifacts.trace_events) {
        if (e.cat == "clock" && e.name == "select") {
          offset = suite_start_ts - e.ts;
          break;
        }
      }
      for (lmb::obs::TraceEvent e : artifacts.trace_events) {
        e.ts += offset;
        e.tid += 1000 * runs;  // keep program threads apart from harness ones
        out.program_events.push_back(std::move(e));
      }
    }
  }
  double wall_total = 0;
  for (double w : run_wall_s) {
    wall_total += w;
  }
  const ProcSample after = ProcSample::now();
  // Each run's own peak (VmHWM reset before it); with the mmap threshold
  // fixed (main.cc) every run's peak is its live footprint.
  const double rss = median(run_peak_rss_mb);

  if (!run_wall_s.empty()) {
    out.end_to_end = {{"ops_per_s", bench_count / wall_total, "1/s"},
                      {"lat_p50_us", median(run_wall_s) * 1e6, "us"},
                      {"lat_tail_us", percentile(run_wall_s, 75) * 1e6, "us"},
                      {"setup_s", median(setup_s), "s"},
                      {"peak_rss_mb", rss, "MB"}};
  }
  out.named = {{"wall_s", median(run_wall_s), "s"},
               {"setup_s", median(setup_s), "s"},
               {"error_rate", out.error_rate(), "ratio"},
               {"peak_rss_mb", rss, "MB"},
               {"benchmarks", benchmarks_per_run, "count"},
               {"runs", static_cast<double>(runs), "count"}};

  for (auto& [name, walls] : bench_wall_ms) {
    out.layer.push_back({"core.wall_ms." + safe_name(name), median(walls), "ms"});
  }
  if (config.spans != nullptr) {
    out.layer.push_back({"core.calibration_ms", median(calibration_ms), "ms"});
    out.layer.push_back({"core.warmup_ms", median(warmup_ms), "ms"});
    out.layer.push_back({"core.measure_ms", median(measure_ms), "ms"});
    out.layer.push_back({"core.fixed_window_ms", median(fixed_ms), "ms"});
  }
  out.layer.push_back({"core.cal_misses", median(cal_misses), "count"});
  out.layer.push_back({"svc.setup_ms", median(setup_s) * 1e3, "ms"});
  out.layer.push_back({"svc.run_overhead_ms", median(run_overhead_ms), "ms"});
  for (Metric& m : proc_deltas(before, after, bench_count, "bench")) {
    out.layer.push_back(std::move(m));
  }
  return out;
}

}  // namespace perfbench
