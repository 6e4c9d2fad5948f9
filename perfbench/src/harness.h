// The benchmark harness's shared vocabulary: workload passes, the metrics
// they report, the spans a traced pass records, and the process counters
// every workload samples around its measured work.
//
// A *pass* runs one workload for a time budget.  The untraced pass gives the
// end-to-end numbers; a traced pass records one span per call into a layer
// (src/lat, src/svc, src/core) and gives the per-layer numbers.  Nothing
// here reaches inside the program: every number comes from the public
// functions the harness calls, their return values, and the process's own
// counters (getrusage, /proc/self/status, thread CPU clocks).
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/obs/trace.h"

namespace perfbench {

// How aggregate_rows combines one metric over a pass's rounds: the median,
// or the quiet quartile (quiet_quartile below) of a throughput or of a
// latency.
enum class OverRounds { kMedian, kQuietThroughput, kQuietLatency };

// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  OverRounds over_rounds = OverRounds::kMedian;
};

// The metric called `name` in `metrics` (null when there is none).
const Metric* find_metric(const std::vector<Metric>& metrics, const std::string& name);

// The metrics of `from` named by the first of each pair, in the pairs'
// order, renamed to the second; names `from` lacks are skipped.
std::vector<Metric> select_metrics(const std::vector<Metric>& from,
                                   const std::vector<std::pair<std::string, std::string>>& names);

// Every workload, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

// Records the harness's spans in memory: one complete event per call into a
// layer, carrying its own id, its parent's id and the request or op id it
// served, all as event args.  The events go to an obs::TraceSink, so
// report::trace_to_json writes them in the program's lmbenchpp.trace.v1
// form (which Perfetto loads as is).
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // An open span; records itself when it ends or goes out of scope.  A span
  // made from a null recorder records nothing (the untraced pass).
  class Span {
   public:
    Span(SpanRecorder* recorder, std::string layer, std::string call,
         std::uint64_t parent, std::uint64_t op);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

    std::uint64_t id() const { return id_; }
    void end();

   private:
    SpanRecorder* recorder_ = nullptr;
    std::string layer_;
    std::string call_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t op_ = 0;
    lmb::Nanos start_ = 0;
  };

  lmb::obs::TraceSink& sink() { return sink_; }
  std::size_t size() const { return sink_.size(); }

 private:
  friend class Span;
  lmb::obs::TraceSink sink_;
  std::uint64_t next_id_ = 1;
};

// Opens a span on `recorder` (null: a no-op span).
SpanRecorder::Span span(SpanRecorder* recorder, std::string layer, std::string call,
                        std::uint64_t parent = 0, std::uint64_t op = 0);

// What one pass is asked to do.
struct PassConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Scratch directory inside the checkout; the pass may create anything
  // under it.
  std::filesystem::path workdir;
  // Non-null in a traced pass.
  SpanRecorder* spans = nullptr;
};

// Everything a pass produced.
struct PassResult {
  std::string workload;
  // Operations attempted and failed; a failed output check marks the
  // operations it covers as failed, so error_rate = failed / attempted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  // The end-to-end metrics every workload reports (end_to_end_specs()).
  std::vector<Metric> end_to_end;
  // This workload's own end-to-end metrics, under the names the metric
  // list in perfbench/METRICS.md gives them (ops_per_s, lat_p99_us,
  // wall_s, status_p50_us, ...).
  std::vector<Metric> named;
  // Per-layer metrics (meaningful in a traced pass).
  std::vector<Metric> layer;
  // Events the program itself traced during a traced pass (suite_quick),
  // already shifted onto the harness spans' timeline.
  std::vector<lmb::obs::TraceEvent> program_events;
  // Provenance lines ("key value").
  std::vector<std::pair<std::string, std::string>> provenance;

  double error_rate() const {
    return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
  const Metric* find(const std::string& name) const {  // searches end_to_end
    return find_metric(end_to_end, name);
  }
};

// The end-to-end metrics every workload reports, in result-line order.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& end_to_end_specs();

// Runs one workload pass.  Throws std::invalid_argument on an unknown name.
PassResult run_pass(const std::string& workload, const PassConfig& config);

// The workloads (one translation unit each).
PassResult run_echo_closed(const PassConfig& config);
PassResult run_rpc_open(const PassConfig& config);
PassResult run_suite_quick(const PassConfig& config);
PassResult run_daemon_ops(const PassConfig& config);

// ---- process counters -----------------------------------------------------

// getrusage(RUSAGE_SELF) plus /proc/self/status, at one instant.
struct ProcSample {
  lmb::Nanos user_ns = 0;
  lmb::Nanos sys_ns = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  double vmsize_kb = 0;
  double vmhwm_kb = 0;
  long threads = 0;
  lmb::Nanos wall_ns = 0;  // steady clock

  static ProcSample now();
};

// Per-op deltas between two samples: proc.user_ns_per_<op>,
// proc.sys_ns_per_<op>, proc.nvcsw_per_<op> and proc.nivcsw_per_s.
std::vector<Metric> proc_deltas(const ProcSample& before, const ProcSample& after,
                                double ops, const std::string& op);

// CLOCK_THREAD_CPUTIME_ID of the calling thread.
lmb::Nanos thread_cpu_ns();
// CLOCK_MONOTONIC now.
lmb::Nanos steady_ns();
// ru_maxrss in MiB.
double peak_rss_mb();
// Resets the kernel's peak-RSS mark (VmHWM) so that peak_since_reset_mb()
// covers only what follows.  Best-effort: where /proc/self/clear_refs is not
// writable the mark keeps the process peak.
void reset_peak_rss();
// VmHWM in MiB.
double peak_since_reset_mb();

// Percentile p (0 to 100) of `values` as lmb::Sample interpolates it, and
// the median; NaN when `values` is empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// The quiet quartile over rounds: the third quartile of a throughput, the
// first of a latency.  Other tenants of a shared machine only ever slow a
// round down, so this estimates the undisturbed figure from a quarter of
// the rounds rather than one (the minimum lmbench takes).
double quiet_quartile(std::vector<double> values, bool higher_is_better);

// Per-metric aggregates across rows (one metric list per round): for each
// name of the first row that every row has, its values combined as that
// metric's over_rounds says.
std::vector<Metric> aggregate_rows(const std::vector<std::vector<Metric>>& rows);

// Provenance every pass records: the seed, the clock source, and the load
// average and governor from capture_run_environment.
std::vector<std::pair<std::string, std::string>> provenance(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
