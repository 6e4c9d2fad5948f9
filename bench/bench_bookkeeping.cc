// Per-run bookkeeping of svc::BenchService::run under google-benchmark.
//
// Every run_suite run and every lmbenchd job pays these steps once, beside
// the benchmarks themselves: the host query, the provenance capture, a
// cold calibration-cache probe, and the trend-store append.  In a
// long-lived process none of them may grow with the life of the process or
// with the stored history (nanoBench: a measurement tool's own overhead
// must be small and known).  BM_TrendAppend/N appends to a run log that
// already holds N runs.
//
//   ./build/bench/bench_bookkeeping
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "src/core/env.h"
#include "src/db/cal_store.h"
#include "src/db/trend_store.h"
#include "src/obs/run_env.h"
#include "src/report/json.h"
#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace {

void BM_QuerySystemInfo(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmb::query_system_info());
  }
}
BENCHMARK(BM_QuerySystemInfo)->Unit(benchmark::kMicrosecond);

void BM_CaptureRunEnvironment(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmb::obs::capture_run_environment());
  }
}
BENCHMARK(BM_CaptureRunEnvironment)->Unit(benchmark::kMicrosecond);

void BM_CalCacheLoadCold(benchmark::State& state) {
  lmb::sys::TempDir dir("lmb_bookkeeping");
  const std::string path = dir.file("absent-cal.db");
  for (auto _ : state) {
    lmb::CalibrationCache cache;
    benchmark::DoNotOptimize(lmb::db::load_calibration_cache(path, "sig", cache));
  }
}
BENCHMARK(BM_CalCacheLoadCold)->Unit(benchmark::kMicrosecond);

void BM_TrendAppend(benchmark::State& state) {
  lmb::sys::TempDir dir("lmb_bookkeeping");
  lmb::report::ResultBatch batch;
  batch.system = "host";
  batch.environment = lmb::obs::capture_run_environment();
  lmb::RunResult result;
  result.name = "lat_syscall";
  result.category = "latency";
  result.add("us", 0.1, "us");
  batch.results.push_back(result);

  // The stored history: run-log lines shaped like real ones, provenance
  // block included.
  std::string env;
  for (const lmb::obs::EnvField& field : lmb::obs::environment_fields(*batch.environment)) {
    if (!field.value.empty()) {
      env += (env.empty() ? "" : ",") + lmb::report::json_quote(field.name) + ":" +
             lmb::report::json_quote(field.value);
    }
  }
  std::string log;
  for (long seq = 1; seq <= state.range(0); ++seq) {
    log += "{\"seq\":" + std::to_string(seq) +
           ",\"system\":\"host\",\"total_wall_ms\":1,\"results\":1,\"env\":{" + env + "}}\n";
  }
  std::filesystem::create_directories(dir.file("host"));
  lmb::sys::write_file(dir.file("host/runs.jsonl"), log);

  lmb::db::TrendStore store(dir.path());
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.append(batch));
  }
}
// Few iterations, so the history stays near its nominal size while appended to.
BENCHMARK(BM_TrendAppend)
    ->Arg(40)
    ->Arg(1000)
    ->Arg(20000)
    ->Iterations(50)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
