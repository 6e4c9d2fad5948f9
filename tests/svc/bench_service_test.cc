// BenchService: the whole run_suite pipeline as a library, driven against
// a private registry of fast synthetic benchmarks.
#include "src/svc/bench_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/core/timing.h"
#include "src/db/trend_store.h"
#include "src/sys/temp.h"

namespace lmb::svc {
namespace {

namespace fs = std::filesystem;

// A registry of instant benchmarks; `value` lets tests inject a step.
Registry make_registry(double lat_value = 10.0) {
  Registry registry;
  registry.add(BenchmarkInfo{
      .name = "fake_lat",
      .category = "latency",
      .description = "synthetic latency",
      .run = [lat_value](const Options&) { return RunResult().add("us", lat_value, "us"); },
  });
  registry.add(BenchmarkInfo{
      .name = "fake_bw",
      .category = "bandwidth",
      .description = "synthetic bandwidth",
      .run = [](const Options&) { return RunResult().add("mbs", 5000.0, "MB/s"); },
  });
  registry.add(BenchmarkInfo{
      .name = "fake_fail",
      .category = "latency",
      .description = "always throws",
      .run = [](const Options&) -> RunResult { throw std::runtime_error("boom"); },
  });
  return registry;
}

class BenchServiceTest : public ::testing::Test {
 protected:
  RunRequest base_request() {
    RunRequest req;
    req.names = {"fake_lat", "fake_bw"};
    req.use_cal_cache = false;
    return req;
  }
  sys::TempDir tmp_;
};

TEST_F(BenchServiceTest, RunsSelectedBenchmarksAndCountsMetrics) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunArtifacts artifacts = service.run(base_request());
  ASSERT_EQ(artifacts.batch.results.size(), 2u);
  EXPECT_EQ(artifacts.metric_count, 2u);
  EXPECT_EQ(artifacts.failed, 0);
  EXPECT_EQ(artifacts.exit_code(), 0);
  EXPECT_FALSE(artifacts.batch.system.empty());
  EXPECT_TRUE(artifacts.batch.environment.has_value());
  EXPECT_EQ(service.completed_runs(), 1);
}

TEST_F(BenchServiceTest, UnknownBenchmarkIsAUsageErrorBeforeAnythingRuns) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.names = {"fake_lat", "lat_typo"};
  try {
    service.run(req);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "no such benchmark 'lat_typo' (try --list)");
  }
  EXPECT_EQ(service.completed_runs(), 0);
}

TEST_F(BenchServiceTest, EmptyCategoryMatchIsAUsageError) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req;
  req.category = "nonsense";
  req.use_cal_cache = false;
  try {
    service.run(req);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "no benchmarks in category 'nonsense' (try --list)");
  }
}

TEST_F(BenchServiceTest, FailingBenchmarkSetsExitCodeOne) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.names = {"fake_lat", "fake_fail"};
  RunArtifacts artifacts = service.run(req);
  EXPECT_EQ(artifacts.failed, 1);
  EXPECT_EQ(artifacts.exit_code(), 1);
}

TEST_F(BenchServiceTest, StreamsProgressEventsInOrder) {
  Registry registry = make_registry();
  BenchService service(registry);
  std::vector<ServiceEvent::Kind> kinds;
  int finishes = 0;
  service.run(base_request(), [&](const ServiceEvent& event) {
    kinds.push_back(event.kind);
    if (event.kind == ServiceEvent::Kind::kBenchFinish) {
      ++finishes;
      EXPECT_NE(event.result, nullptr);
      EXPECT_FALSE(event.name.empty());
    }
    if (event.kind == ServiceEvent::Kind::kSuiteStart) {
      EXPECT_EQ(event.total, 2);
      EXPECT_FALSE(event.system.empty());
    }
  });
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), ServiceEvent::Kind::kSuiteStart);
  EXPECT_EQ(kinds.back(), ServiceEvent::Kind::kSuiteEnd);
  EXPECT_EQ(finishes, 2);
}

TEST_F(BenchServiceTest, WritesRequestedOutputFiles) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.json_path = tmp_.path() + "/r.json";
  req.csv_path = tmp_.path() + "/r.csv";
  req.out_path = tmp_.path() + "/r.db";
  service.run(req);
  EXPECT_TRUE(fs::exists(req.json_path));
  EXPECT_TRUE(fs::exists(req.csv_path));
  EXPECT_TRUE(fs::exists(req.out_path));
}

TEST_F(BenchServiceTest, EstablishesBaselineThenGates) {
  std::string store = tmp_.path() + "/baselines";
  {
    Registry registry = make_registry(10.0);
    BenchService service(registry);
    RunRequest req = base_request();
    req.baseline_path = store;
    RunArtifacts first = service.run(req);
    EXPECT_TRUE(first.baseline_established);
    EXPECT_FALSE(first.baseline_saved_path.empty());
    EXPECT_EQ(first.exit_code(), 0);
  }
  {
    // Second run regresses 10us -> 20us; the armed gate must trip (exit 3).
    Registry registry = make_registry(20.0);
    BenchService service(registry);
    RunRequest req = base_request();
    req.baseline_path = store;
    req.gate = true;
    RunArtifacts second = service.run(req);
    ASSERT_TRUE(second.compare.has_value());
    EXPECT_TRUE(second.gate_failed);
    EXPECT_EQ(second.exit_code(), 3);
  }
}

TEST_F(BenchServiceTest, AppendsToTrendStore) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.trend_dir = tmp_.path() + "/trends";
  EXPECT_EQ(service.run(req).trend_seq, 1);
  EXPECT_EQ(service.run(req).trend_seq, 2);
  db::TrendStore store(req.trend_dir);
  ASSERT_EQ(store.hosts().size(), 1u);
  EXPECT_EQ(store.runs(store.hosts()[0]).size(), 2u);
}

TEST_F(BenchServiceTest, FromOptionsMapsRunSuiteFlags) {
  Options opts = Options::from_pairs({{"only", "fake_lat,fake_bw"},
                                      {"jobs", "2"},
                                      {"timeout", "30"},
                                      {"json", "out.json"},
                                      {"gate", "2.5"},
                                      {"baseline", "b"},
                                      {"trend-store", "t"},
                                      {"no-cal-cache", "true"}});
  RunRequest req = RunRequest::from_options(opts);
  EXPECT_EQ(req.names, (std::vector<std::string>{"fake_lat", "fake_bw"}));
  EXPECT_EQ(req.jobs, 2);
  EXPECT_DOUBLE_EQ(req.timeout_sec, 30.0);
  EXPECT_EQ(req.json_path, "out.json");
  EXPECT_TRUE(req.gate);
  ASSERT_TRUE(req.gate_floor_pct.has_value());
  EXPECT_DOUBLE_EQ(*req.gate_floor_pct, 2.5);
  EXPECT_EQ(req.trend_dir, "t");
  EXPECT_FALSE(req.use_cal_cache);

  // Bare --gate keeps the default significance floor.
  RunRequest bare = RunRequest::from_options(Options::from_pairs({{"gate", "true"}}));
  EXPECT_TRUE(bare.gate);
  EXPECT_FALSE(bare.gate_floor_pct.has_value());
}

TEST_F(BenchServiceTest, MalformedOnlyListIsInvalidArgument) {
  EXPECT_THROW(RunRequest::from_options(Options::from_pairs({{"only", "a,,b"}})),
               std::invalid_argument);
}

TEST_F(BenchServiceTest, FromOptionsMapsClockAndNanoscaleFlags) {
  RunRequest def = RunRequest::from_options(Options::from_pairs({}));
  EXPECT_EQ(def.clock_source, ClockSource::kAuto);
  EXPECT_FALSE(def.nanoscale);

  RunRequest req = RunRequest::from_options(
      Options::from_pairs({{"clock", "wall"}, {"nanoscale", "true"}}));
  EXPECT_EQ(req.clock_source, ClockSource::kWall);
  EXPECT_TRUE(req.nanoscale);

  EXPECT_THROW(RunRequest::from_options(Options::from_pairs({{"clock", "sundial"}})),
               UsageError);
}

TEST_F(BenchServiceTest, ClockSourceFlowsIntoEveryMeasurement) {
  Registry registry;
  registry.add(BenchmarkInfo{
      .name = "fake_timed",
      .category = "latency",
      .description = "actually calls measure()",
      .run =
          [](const Options&) {
            volatile int x = 0;
            Measurement m = measure(
                [&](std::uint64_t n) {
                  for (std::uint64_t i = 0; i < n; ++i) x = x + 1;
                },
                TimingPolicy::quick());
            RunResult r;
            r.add("ns", m.ns_per_op, "ns");
            r.measurement = m;
            return r;
          },
  });
  BenchService service(registry);
  RunRequest req;
  req.names = {"fake_timed"};
  req.use_cal_cache = false;
  req.clock_source = ClockSource::kWall;  // forced wall: deterministic everywhere
  RunArtifacts artifacts = service.run(req);
  ASSERT_EQ(artifacts.batch.results.size(), 1u);
  ASSERT_TRUE(artifacts.batch.results[0].measurement.has_value());
  EXPECT_EQ(artifacts.batch.results[0].measurement->clock_source, "wall");
}

TEST_F(BenchServiceTest, TscFallbackWarningIsExplicit) {
  ASSERT_EQ(setenv("LMBPP_NO_TSC", "1", 1), 0);
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.clock_source = ClockSource::kTsc;
  bool saw_warning = false;
  service.run(req, [&](const ServiceEvent& event) {
    if (event.kind != ServiceEvent::Kind::kSuiteStart) {
      return;
    }
    for (const std::string& w : event.warnings) {
      if (w.find("--clock=tsc") != std::string::npos &&
          w.find("LMBPP_NO_TSC") != std::string::npos) {
        saw_warning = true;
      }
    }
  });
  EXPECT_TRUE(saw_warning);
  ASSERT_EQ(unsetenv("LMBPP_NO_TSC"), 0);
}

TEST_F(BenchServiceTest, TracedRunsWithoutTimeoutsRetainNoSink) {
  Registry registry = make_registry();
  BenchService service(registry);
  RunRequest req = base_request();
  req.collect_trace = true;
  for (int i = 0; i < 100; ++i) {
    RunArtifacts artifacts = service.run(req);
    ASSERT_FALSE(artifacts.trace_events.empty());
  }
  EXPECT_LE(service.retained_trace_sinks(), 1u);
}

TEST_F(BenchServiceTest, TimedOutTracedRunKeepsItsSink) {
  // The abandoned benchmark thread may still trace into the sink, so the
  // service must keep that one alive.  The registry and the service are
  // never destroyed, as the abandoned-thread rule requires of both.
  static std::atomic<bool> release{false};
  static Registry* registry = [] {
    auto* r = new Registry(make_registry());
    r->add(BenchmarkInfo{
        .name = "fake_hang",
        .category = "latency",
        .description = "outlives its timeout",
        .run =
            [](const Options&) {
              while (!release) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
              return RunResult().add("us", 1.0, "us");
            },
    });
    return r;
  }();
  static BenchService* service = new BenchService(*registry);
  RunRequest req = base_request();
  req.names = {"fake_hang"};
  req.collect_trace = true;
  req.timeout_sec = 0.05;
  RunArtifacts artifacts = service->run(req);
  release = true;
  ASSERT_EQ(artifacts.batch.results.size(), 1u);
  EXPECT_EQ(artifacts.batch.results[0].status, RunStatus::kTimeout);
  EXPECT_EQ(service->retained_trace_sinks(), 1u);
}

}  // namespace
}  // namespace lmb::svc
