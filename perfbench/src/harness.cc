#include "perfbench/src/harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "src/core/stats.h"
#include "src/core/tsc_clock.h"
#include "src/obs/run_env.h"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"echo_closed", "rpc_open", "suite_quick",
                                                 "daemon_ops"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"ops_per_s", "1/s"},   {"lat_p50_us", "us"}, {"lat_tail_us", "us"},
      {"peak_rss_mb", "MB"},  {"setup_s", "s"},
  };
  return specs;
}

// ---- spans ----------------------------------------------------------------

SpanRecorder::Span::Span(SpanRecorder* recorder, std::string layer, std::string call,
                         std::uint64_t parent, std::uint64_t op)
    : recorder_(recorder),
      layer_(std::move(layer)),
      call_(std::move(call)),
      parent_(parent),
      op_(op) {
  if (recorder_ != nullptr) {
    id_ = recorder_->next_id_++;
    start_ = recorder_->sink_.timestamp();
  }
}

SpanRecorder::Span::~Span() { end(); }

void SpanRecorder::Span::end() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->sink_.complete(layer_, call_, start_,
                            {{"id", std::to_string(id_)},
                             {"parent", std::to_string(parent_)},
                             {"op", std::to_string(op_)}});
  recorder_ = nullptr;
}

SpanRecorder::Span span(SpanRecorder* recorder, std::string layer, std::string call,
                        std::uint64_t parent, std::uint64_t op) {
  return SpanRecorder::Span(recorder, std::move(layer), std::move(call), parent, op);
}

// ---- results --------------------------------------------------------------

const Metric* find_metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::vector<Metric> select_metrics(const std::vector<Metric>& from,
                                   const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<Metric> out;
  for (const auto& [name, as] : names) {
    if (const Metric* m = find_metric(from, name)) {
      out.push_back({as, m->value, m->unit});
    }
  }
  return out;
}

PassResult run_pass(const std::string& workload, const PassConfig& config) {
  PassResult result;
  if (workload == "echo_closed") {
    result = run_echo_closed(config);
  } else if (workload == "rpc_open") {
    result = run_rpc_open(config);
  } else if (workload == "suite_quick") {
    result = run_suite_quick(config);
  } else if (workload == "daemon_ops") {
    result = run_daemon_ops(config);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  result.workload = workload;
  result.provenance = provenance(config.seed);
  return result;
}

// ---- process counters -----------------------------------------------------

namespace {

lmb::Nanos timeval_ns(const timeval& tv) {
  return static_cast<lmb::Nanos>(tv.tv_sec) * 1'000'000'000 +
         static_cast<lmb::Nanos>(tv.tv_usec) * 1000;
}

lmb::Nanos clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<lmb::Nanos>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

ProcSample ProcSample::now() {
  ProcSample s;
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  s.user_ns = timeval_ns(ru.ru_utime);
  s.sys_ns = timeval_ns(ru.ru_stime);
  s.nvcsw = ru.ru_nvcsw;
  s.nivcsw = ru.ru_nivcsw;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      status >> s.vmsize_kb;
    } else if (key == "VmHWM:") {
      status >> s.vmhwm_kb;
    } else if (key == "Threads:") {
      status >> s.threads;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  s.wall_ns = steady_ns();
  return s;
}

std::vector<Metric> proc_deltas(const ProcSample& before, const ProcSample& after, double ops,
                                const std::string& op) {
  const double n = std::max(ops, 1.0);
  const double secs = std::max<double>(static_cast<double>(after.wall_ns - before.wall_ns), 1) / 1e9;
  return {
      {"proc.user_ns_per_" + op, static_cast<double>(after.user_ns - before.user_ns) / n, "ns"},
      {"proc.sys_ns_per_" + op, static_cast<double>(after.sys_ns - before.sys_ns) / n, "ns"},
      {"proc.nvcsw_per_" + op, static_cast<double>(after.nvcsw - before.nvcsw) / n, "count"},
      {"proc.nivcsw_per_s", static_cast<double>(after.nivcsw - before.nivcsw) / secs, "1/s"},
  };
}

lmb::Nanos thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

lmb::Nanos steady_ns() { return clock_ns(CLOCK_MONOTONIC); }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_since_reset_mb() { return ProcSample::now().vmhwm_kb / 1024.0; }

double percentile(std::vector<double> values, double p) {
  return values.empty() ? std::nan("") : lmb::Sample(std::move(values)).percentile(p);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double quiet_quartile(std::vector<double> values, bool higher_is_better) {
  return percentile(std::move(values), higher_is_better ? 75 : 25);
}

std::vector<Metric> aggregate_rows(const std::vector<std::vector<Metric>>& rows) {
  std::vector<Metric> out;
  if (rows.empty()) {
    return out;
  }
  for (const Metric& first : rows.front()) {
    std::vector<double> values;
    for (const std::vector<Metric>& row : rows) {
      if (const Metric* m = find_metric(row, first.name)) {
        values.push_back(m->value);
      }
    }
    if (values.size() != rows.size()) {
      continue;
    }
    double value = 0;
    switch (first.over_rounds) {
      case OverRounds::kMedian:
        value = median(std::move(values));
        break;
      case OverRounds::kQuietThroughput:
        value = quiet_quartile(std::move(values), true);
        break;
      case OverRounds::kQuietLatency:
        value = quiet_quartile(std::move(values), false);
        break;
    }
    out.push_back({first.name, value, first.unit});
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> provenance(std::uint64_t seed) {
  lmb::obs::RunEnvironment env = lmb::obs::capture_run_environment();
  return {
      {"seed", std::to_string(seed)},
      {"clock_source", lmb::select_clock(lmb::ClockSource::kAuto).source},
      {"loadavg1", env.loadavg1},
      {"governor", env.governor},
  };
}

}  // namespace perfbench
