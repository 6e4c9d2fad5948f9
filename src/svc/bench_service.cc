#include "src/svc/bench_service.h"

#include <algorithm>
#include <filesystem>

#include "src/core/env.h"
#include "src/core/suite_runner.h"
#include "src/db/baseline_store.h"
#include "src/db/cal_store.h"
#include "src/db/result_set.h"
#include "src/db/trend_store.h"
#include "src/obs/run_env.h"
#include "src/report/trace_io.h"
#include "src/sys/fdio.h"

namespace lmb::svc {

RunRequest RunRequest::from_options(const Options& opts) {
  RunRequest req;
  req.category = opts.get_string("category", "");
  req.names = opts.get_list("only");
  req.jobs = static_cast<int>(opts.get_int("jobs", 1));
  req.timeout_sec = opts.get_double("timeout", 0.0);
  req.counters = opts.get_bool("counters");
  try {
    req.clock_source = parse_clock_source(opts.get_string("clock", "auto"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  req.nanoscale = opts.get_bool("nanoscale");
  req.bench_options = opts;

  req.use_cal_cache = !opts.get_bool("no-cal-cache");
  req.cal_cache_path = opts.get_string("cal-cache", ".lmbenchpp-cal.db");

  req.trace_path = opts.get_string("trace", "");
  req.trace_chrome_path = opts.get_string("trace-chrome", "");
  req.collect_trace = !req.trace_path.empty() || !req.trace_chrome_path.empty();

  req.out_path = opts.get_string("out", "");
  req.json_path = opts.get_string("json", "");
  req.csv_path = opts.get_string("csv", "");

  req.baseline_path = opts.get_string("baseline", "");
  req.gate = opts.has("gate");
  // --gate is a flag ("true") or carries the significance floor in percent.
  if (req.gate && opts.get_string("gate", "") != "true") {
    req.gate_floor_pct = opts.get_double("gate", 5.0);
  }
  req.assume_noise_pct = opts.get_double("assume-noise", 0.0);
  req.save_baseline = opts.get_bool("save-baseline");
  req.compare_json_path = opts.get_string("compare-json", "");

  req.trend_dir = opts.get_string("trend-store", "");
  return req;
}

BenchService::BenchService(const Registry& registry) : registry_(&registry) {}

std::size_t BenchService::retained_trace_sinks() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return trace_sinks_.size();
}

int BenchService::completed_runs() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return completed_;
}

CalibrationCache* BenchService::cache_for(const std::string& path) {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::unique_ptr<CalibrationCache>& slot = cal_caches_[path];
  if (!slot) {
    slot = std::make_unique<CalibrationCache>();
  }
  return slot.get();
}

namespace {

// The post-suite baseline comparison (run_suite --baseline/--gate), writing
// its findings into `artifacts` instead of printing.
void compare_against_baseline(const RunRequest& request, RunArtifacts& artifacts) {
  const std::string& baseline_path = request.baseline_path;
  // An existing regular file is an explicit results JSON; anything else
  // (existing directory, or a path not there yet) is a baseline store —
  // the first gated CI run must be able to create it.
  bool is_dir = !std::filesystem::is_regular_file(baseline_path);

  std::optional<report::ResultBatch> base;
  if (is_dir) {
    base = db::BaselineStore(baseline_path).load_latest();
  } else {
    base = db::BaselineStore::load(baseline_path);  // throws if bad
  }
  if (!base.has_value()) {
    // Empty store: this run becomes the baseline; nothing to gate yet.
    artifacts.baseline_established = true;
    artifacts.baseline_saved_path = db::BaselineStore(baseline_path).save(artifacts.batch);
    return;
  }

  report::CompareThresholds thresholds;
  if (request.gate_floor_pct.has_value()) {
    thresholds.floor_rel = *request.gate_floor_pct / 100.0;
  }
  thresholds.fallback_noise_rel = request.assume_noise_pct / 100.0;

  artifacts.compare = report::compare_batches(*base, artifacts.batch, thresholds);

  if (!request.compare_json_path.empty()) {
    sys::write_file(request.compare_json_path, report::compare_to_json(*artifacts.compare));
  }
  if (is_dir && request.save_baseline) {
    artifacts.baseline_saved_path = db::BaselineStore(baseline_path).save(artifacts.batch);
  }
  artifacts.gate_failed = request.gate && artifacts.compare->has_regressions();
}

}  // namespace

RunArtifacts BenchService::run(const RunRequest& request, const ProgressFn& progress) {
  std::lock_guard<std::mutex> run_lock(run_mu_);

  // Validate the selection before anything runs: a typo must be a usage
  // error, not a silent zero-benchmark run.
  int total = 0;
  if (!request.names.empty()) {
    for (const std::string& name : request.names) {
      if (registry_->find(name) == nullptr) {
        throw UsageError("no such benchmark '" + name + "' (try --list)");
      }
    }
    total = static_cast<int>(request.names.size());
  } else {
    total = static_cast<int>(registry_->list(request.category).size());
    if (total == 0 && !request.category.empty()) {
      throw UsageError("no benchmarks in category '" + request.category + "' (try --list)");
    }
  }

  SystemInfo info = query_system_info();
  RunArtifacts artifacts;
  artifacts.batch.system = info.label();

  // Provenance snapshot + noise warnings; the snapshot rides along in the
  // batch so lmbench_compare and the trend store can diff environments.
  obs::RunEnvironment run_env = obs::capture_run_environment(info);
  artifacts.batch.environment = run_env;

  // Resolve the requested time source against this host.  An unhonorable
  // --clock=tsc becomes a startup warning; the per-measurement clock_source
  // field records what actually ran.
  SelectedClock selected = select_clock(request.clock_source);

  SuiteConfig config;
  config.category = request.category;
  config.names = request.names;
  config.jobs = request.jobs;
  config.timeout_sec = request.timeout_sec;
  config.options = request.bench_options;
  config.counters = request.counters;
  config.clock = selected.clock;
  config.nanoscale = request.nanoscale;

  std::unique_ptr<obs::TraceSink> owned_sink;
  obs::TraceSink* sink = nullptr;
  if (request.collect_trace) {
    owned_sink = std::make_unique<obs::TraceSink>();
    sink = owned_sink.get();
    config.trace = sink;
  }

  CalibrationCache* cal_cache = nullptr;
  std::string host_sig = host_signature(info);
  size_t cal_available = 0;
  if (request.use_cal_cache) {
    cal_cache = cache_for(request.cal_cache_path);
    if (cal_cache->size() == 0) {
      db::load_calibration_cache(request.cal_cache_path, host_sig, *cal_cache);
    }
    cal_available = cal_cache->size();
    config.cal_cache = cal_cache;
    // Seed the selected clock's persisted read-overhead (if a prior run
    // measured it) so this run skips the startup probe.  Must happen before
    // the first overhead_ns() call — the value is memoized per process.
    if (std::optional<CalEntry> seeded =
            cal_cache->find(clock_overhead_cache_key(selected.source));
        seeded.has_value() && seeded->iterations > 0) {
      seed_clock_overhead(selected.source, static_cast<Nanos>(seeded->iterations));
    }
  }
  artifacts.cal_cache_used = request.use_cal_cache;
  artifacts.cal_warm = cal_available > 0;
  const int cal_hits_before = cal_cache != nullptr ? cal_cache->hits() : 0;
  const int cal_misses_before = cal_cache != nullptr ? cal_cache->misses() : 0;

  auto emit = [&](const ServiceEvent& event) {
    if (progress) {
      progress(event);
    }
  };

  {
    ServiceEvent event;
    event.kind = ServiceEvent::Kind::kSuiteStart;
    event.system = info.label();
    event.total = total;
    event.cal_cache = request.use_cal_cache;
    event.cal_warm = artifacts.cal_warm;
    event.cal_path = request.cal_cache_path;
    event.warnings = run_env.warnings;
    if (selected.fell_back) {
      event.warnings.push_back("clock: --clock=tsc not honorable, using wall (" +
                               selected.fallback_reason + ")");
    }
    emit(event);
  }

  if (sink != nullptr) {
    obs::TraceArgs clock_args = {{"requested", clock_source_name(request.clock_source)},
                                 {"source", selected.source},
                                 {"fell_back", selected.fell_back ? "true" : "false"},
                                 {"overhead_ns", std::to_string(selected.clock->overhead_ns())},
                                 {"nanoscale", request.nanoscale ? "true" : "false"}};
    if (selected.source == "tsc") {
      clock_args.push_back({"tsc_mhz", std::to_string(TscClock::calibration().tsc_mhz)});
    }
    if (selected.fell_back) {
      clock_args.push_back({"fallback_reason", selected.fallback_reason});
    }
    sink->instant("clock", "select", std::move(clock_args));
  }

  SuiteRunner runner(*registry_);
  runner.set_progress([&](const SuiteEvent& suite_event) {
    ServiceEvent event;
    event.kind = suite_event.kind == SuiteEvent::Kind::kStart
                     ? ServiceEvent::Kind::kBenchStart
                     : ServiceEvent::Kind::kBenchFinish;
    event.index = suite_event.index;
    event.total = suite_event.total;
    event.name = suite_event.name;
    event.description = suite_event.description;
    event.result = suite_event.result;
    emit(event);
  });

  StopWatch suite_watch;
  artifacts.batch.results = runner.run(config);
  // An abandoned (timed-out) benchmark thread may still emit into the sink
  // after run() returns; only then must it outlive this call.
  if (owned_sink != nullptr &&
      std::any_of(artifacts.batch.results.begin(), artifacts.batch.results.end(),
                  [](const RunResult& r) { return r.status == RunStatus::kTimeout; })) {
    std::lock_guard<std::mutex> lock(state_mu_);
    trace_sinks_.push_back(std::move(owned_sink));
  }
  artifacts.total_wall_ms = static_cast<double>(suite_watch.elapsed()) / 1e6;

  if (cal_cache != nullptr) {
    artifacts.cal_hits = cal_cache->hits() - cal_hits_before;
    artifacts.cal_misses = cal_cache->misses() - cal_misses_before;
    // Persist this run's measured clock-read overhead (clamped to >= 1 so
    // the entry round-trips the store's positive-iterations rule) for the
    // next run to seed from.
    cal_cache->put(clock_overhead_cache_key(selected.source),
                   CalEntry{static_cast<std::uint64_t>(
                                std::max<Nanos>(selected.clock->overhead_ns(), 1)),
                            1});
    try {
      db::save_calibration_cache(request.cal_cache_path, host_sig, *cal_cache);
    } catch (const std::exception& e) {
      artifacts.cal_save_error = e.what();
    }
  }

  report::SuiteTiming timing;
  timing.total_wall_ms = artifacts.total_wall_ms;
  timing.jobs = request.jobs;
  timing.cal_cache = request.use_cal_cache;
  timing.cal_hits = artifacts.cal_hits;
  timing.cal_misses = artifacts.cal_misses;
  artifacts.batch.timing = timing;

  for (const RunResult& r : artifacts.batch.results) {
    if (!r.ok()) {
      ++artifacts.failed;
      continue;
    }
    artifacts.metric_count += r.metrics.size();
  }

  // Requested output files.
  if (!request.out_path.empty()) {
    db::ResultSet set(info.label());
    for (const RunResult& r : artifacts.batch.results) {
      if (!r.ok()) {
        continue;
      }
      for (const Metric& m : r.metrics) {
        set.set(r.name + "_" + m.key, m.value);
      }
    }
    db::ResultDatabase database;
    database.add(set);
    database.save(request.out_path);
  }
  if (!request.json_path.empty()) {
    sys::write_file(request.json_path, report::to_json(artifacts.batch));
  }
  if (!request.csv_path.empty()) {
    sys::write_file(request.csv_path, report::to_csv(artifacts.batch.results, &timing));
  }
  if (sink != nullptr) {
    artifacts.trace_events = sink->events();
    if (!request.trace_path.empty()) {
      sys::write_file(request.trace_path,
                      report::trace_to_json(artifacts.trace_events, info.label()));
    }
    if (!request.trace_chrome_path.empty()) {
      sys::write_file(request.trace_chrome_path,
                      report::trace_to_chrome(artifacts.trace_events));
    }
  }

  if (!request.baseline_path.empty()) {
    compare_against_baseline(request, artifacts);
  }

  if (!request.trend_dir.empty()) {
    artifacts.trend_seq = db::TrendStore(request.trend_dir).append(artifacts.batch);
  }

  {
    ServiceEvent event;
    event.kind = ServiceEvent::Kind::kSuiteEnd;
    event.total = total;
    event.total_wall_ms = artifacts.total_wall_ms;
    event.metric_count = artifacts.metric_count;
    event.failed = artifacts.failed;
    emit(event);
  }

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++completed_;
  }
  return artifacts;
}

}  // namespace lmb::svc
