// Noise-aware batch comparison: classification, direction handling,
// threshold derivation from stored samples, sorting, and the JSON artifact.
#include "src/report/compare.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/report/serialize.h"

namespace lmb::report {
namespace {

RunResult make_result(const std::string& name, const std::string& key, double value,
                      const std::string& unit) {
  RunResult r;
  r.name = name;
  r.category = "latency";
  r.add(key, value, unit);
  return r;
}

// Attaches a repetition sample whose min is `value_ns` and whose spread is
// controlled by `scatter_ns` (one high outlier), so noise_rel is
// predictable.
void attach_sample(RunResult& r, double value_ns, double scatter_ns, int reps = 5) {
  Measurement m;
  m.ns_per_op = value_ns;
  m.mean_ns_per_op = value_ns;
  m.median_ns_per_op = value_ns;
  m.max_ns_per_op = value_ns + scatter_ns;
  for (int i = 0; i + 1 < reps; ++i) {
    m.sample.add(value_ns);
  }
  m.sample.add(value_ns + scatter_ns);
  m.repetitions = reps;
  r.measurement = m;
}

ResultBatch batch(std::vector<RunResult> results, const std::string& system = "host") {
  return ResultBatch{system, std::move(results), {}, {}};
}

TEST(DirectionTest, UnitsMapToDirections) {
  EXPECT_EQ(direction_for_unit("us"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(direction_for_unit("ns"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(direction_for_unit("ms"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(direction_for_unit("MB/s"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(direction_for_unit("MHz"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(direction_for_unit("count"), MetricDirection::kNeutral);
  EXPECT_EQ(direction_for_unit("%"), MetricDirection::kNeutral);
  EXPECT_EQ(direction_for_unit(""), MetricDirection::kNeutral);
}

TEST(CompareTest, SelfCompareReportsNoChanges) {
  std::vector<RunResult> results = {make_result("lat_pipe", "us", 26.4, "us"),
                                    make_result("bw_mem", "rd_mbs", 21000.0, "MB/s")};
  CompareReport cmp = compare_batches(batch(results), batch(results));
  EXPECT_EQ(cmp.regressed, 0);
  EXPECT_EQ(cmp.improved, 0);
  EXPECT_EQ(cmp.unchanged, 2);
  EXPECT_EQ(cmp.missing, 0);
  EXPECT_FALSE(cmp.has_regressions());
}

TEST(CompareTest, LatencyGrowthBeyondFloorRegresses) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  ResultBatch worse = batch({make_result("lat_pipe", "us", 150.0, "us")});
  ResultBatch better = batch({make_result("lat_pipe", "us", 50.0, "us")});

  CompareReport cmp = compare_batches(base, worse);
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kRegressed);
  EXPECT_EQ(cmp.deltas[0].key, "lat_pipe_us");
  EXPECT_NEAR(cmp.deltas[0].rel_delta, 0.5, 1e-12);
  EXPECT_TRUE(cmp.has_regressions());

  cmp = compare_batches(base, better);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kImproved);
  EXPECT_FALSE(cmp.has_regressions());
}

TEST(CompareTest, BandwidthDirectionIsInverted) {
  ResultBatch base = batch({make_result("bw_mem", "rd_mbs", 20000.0, "MB/s")});
  ResultBatch lower = batch({make_result("bw_mem", "rd_mbs", 10000.0, "MB/s")});
  ResultBatch higher = batch({make_result("bw_mem", "rd_mbs", 40000.0, "MB/s")});

  EXPECT_EQ(compare_batches(base, lower).deltas[0].cls, DeltaClass::kRegressed);
  EXPECT_EQ(compare_batches(base, higher).deltas[0].cls, DeltaClass::kImproved);
}

TEST(CompareTest, DeltasWithinTheFloorAreUnchanged) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  ResultBatch wiggle = batch({make_result("lat_pipe", "us", 104.0, "us")});
  CompareReport cmp = compare_batches(base, wiggle);  // default floor 5%
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kUnchanged);

  CompareThresholds tight;
  tight.floor_rel = 0.01;
  cmp = compare_batches(base, wiggle, tight);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kRegressed);
}

TEST(CompareTest, NoisyMeasurementWidensTheThreshold) {
  // 20% swing on a benchmark whose repetitions scatter ~25%: the stored
  // sample must widen the gate beyond the 5% floor and absorb the delta.
  RunResult noisy_base = make_result("lat_ctx", "us", 100.0, "us");
  attach_sample(noisy_base, 100e3, 25e3);
  RunResult noisy_cur = make_result("lat_ctx", "us", 120.0, "us");
  attach_sample(noisy_cur, 120e3, 30e3);

  CompareReport cmp = compare_batches(batch({noisy_base}), batch({noisy_cur}));
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_GT(cmp.deltas[0].noise_rel, 0.05);
  EXPECT_GT(cmp.deltas[0].threshold_rel, 0.20);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kUnchanged) << "20% delta inside 25% noise";

  // The same 20% swing on a tight (zero-scatter) benchmark is a regression.
  RunResult tight_base = make_result("lat_ctx", "us", 100.0, "us");
  attach_sample(tight_base, 100e3, 0.0);
  RunResult tight_cur = make_result("lat_ctx", "us", 120.0, "us");
  attach_sample(tight_cur, 120e3, 0.0);
  cmp = compare_batches(batch({tight_base}), batch({tight_cur}));
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kRegressed);
}

TEST(CompareTest, FallbackNoiseWidensUnmeasuredMetricsOnly) {
  // No stored sample on either side: default thresholds gate by the floor,
  // so a 20% swing regresses...
  ResultBatch base = batch({make_result("lat_sweep", "us", 100.0, "us")});
  ResultBatch cur = batch({make_result("lat_sweep", "us", 120.0, "us")});
  EXPECT_TRUE(compare_batches(base, cur).has_regressions());

  // ...but with --assume-noise=10 the unmeasured metric's gate widens to
  // max(5%, 3 * 10%) = 30% and absorbs it.
  CompareThresholds assume;
  assume.fallback_noise_rel = 0.10;
  CompareReport cmp = compare_batches(base, cur, assume);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kUnchanged);
  EXPECT_NEAR(cmp.deltas[0].threshold_rel, 0.30, 1e-12);

  // A measured (tight) sample still uses its own noise, not the fallback.
  RunResult tight_base = make_result("lat_tight", "us", 100.0, "us");
  attach_sample(tight_base, 100e3, 0.0);
  RunResult tight_cur = make_result("lat_tight", "us", 120.0, "us");
  attach_sample(tight_cur, 120e3, 0.0);
  cmp = compare_batches(batch({tight_base}), batch({tight_cur}), assume);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kRegressed);
}

TEST(CompareTest, MissingKeysAreReportedPerSide) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 10.0, "us"),
                            make_result("lat_tcp", "us", 50.0, "us")});
  ResultBatch cur = batch({make_result("lat_pipe", "us", 10.0, "us"),
                           make_result("lat_udp", "us", 40.0, "us")});
  CompareReport cmp = compare_batches(base, cur);
  EXPECT_EQ(cmp.missing, 2);
  EXPECT_EQ(cmp.unchanged, 1);

  bool saw_missing_current = false;
  bool saw_missing_baseline = false;
  for (const MetricDelta& d : cmp.deltas) {
    if (d.key == "lat_tcp_us") {
      EXPECT_EQ(d.cls, DeltaClass::kMissingCurrent);
      EXPECT_TRUE(std::isnan(d.current));
      saw_missing_current = true;
    }
    if (d.key == "lat_udp_us") {
      EXPECT_EQ(d.cls, DeltaClass::kMissingBaseline);
      EXPECT_TRUE(std::isnan(d.baseline));
      saw_missing_baseline = true;
    }
  }
  EXPECT_TRUE(saw_missing_current);
  EXPECT_TRUE(saw_missing_baseline);
}

TEST(CompareTest, FailedResultsCountAsMissingNotZero) {
  RunResult broken;
  broken.name = "lat_pipe";
  broken.category = "latency";
  broken.status = RunStatus::kError;
  broken.error = "boom";

  ResultBatch base = batch({make_result("lat_pipe", "us", 10.0, "us")});
  CompareReport cmp = compare_batches(base, batch({broken}));
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kMissingCurrent);
  EXPECT_FALSE(cmp.has_regressions());
}

TEST(CompareTest, NeutralUnitsNeverGate) {
  ResultBatch base = batch({make_result("sweep", "points_count", 10.0, "count")});
  ResultBatch cur = batch({make_result("sweep", "points_count", 100.0, "count")});
  CompareReport cmp = compare_batches(base, cur);
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kUnchanged);
  EXPECT_FALSE(cmp.has_regressions());
}

TEST(CompareTest, WorstRegressionSortsFirst) {
  ResultBatch base = batch({make_result("a", "us", 100.0, "us"),
                            make_result("b", "us", 100.0, "us"),
                            make_result("c", "us", 100.0, "us"),
                            make_result("d", "mbs", 1000.0, "MB/s")});
  ResultBatch cur = batch({make_result("a", "us", 120.0, "us"),    // +20% regression
                           make_result("b", "us", 200.0, "us"),    // +100% regression
                           make_result("c", "us", 50.0, "us"),     // improvement
                           make_result("d", "mbs", 1010.0, "MB/s")});  // unchanged
  CompareReport cmp = compare_batches(base, cur);
  ASSERT_EQ(cmp.deltas.size(), 4u);
  EXPECT_EQ(cmp.deltas[0].key, "b_us");
  EXPECT_EQ(cmp.deltas[1].key, "a_us");
  EXPECT_EQ(cmp.deltas.back().key, "c_us") << "improvements sort last";
}

TEST(CompareTest, ZeroBaselineDoesNotDivide) {
  ResultBatch base = batch({make_result("z", "us", 0.0, "us")});
  ResultBatch cur = batch({make_result("z", "us", 1.0, "us")});
  CompareReport cmp = compare_batches(base, cur);
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_TRUE(std::isinf(cmp.deltas[0].rel_delta));
  EXPECT_EQ(cmp.deltas[0].cls, DeltaClass::kRegressed);

  CompareReport same = compare_batches(base, base);
  EXPECT_EQ(same.deltas[0].cls, DeltaClass::kUnchanged);
}

TEST(CompareTest, RenderedTableIsSortedAndSummarized) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")}, "old-host");
  ResultBatch cur = batch({make_result("lat_pipe", "us", 200.0, "us")}, "new-host");
  CompareReport cmp = compare_batches(base, cur);
  std::string table = render_compare_table(cmp);
  EXPECT_NE(table.find("old-host -> new-host"), std::string::npos) << table;
  EXPECT_NE(table.find("lat_pipe_us"), std::string::npos);
  EXPECT_NE(table.find("regressed"), std::string::npos);
  EXPECT_NE(table.find("1 regressed, 0 improved"), std::string::npos) << table;
}

TEST(CompareTest, JsonArtifactCarriesVerdictAndParses) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us"),
                            make_result("bw_mem", "rd_mbs", 1000.0, "MB/s")});
  ResultBatch cur = batch({make_result("lat_pipe", "us", 200.0, "us"),
                           make_result("bw_mem", "rd_mbs", 2000.0, "MB/s")});
  CompareReport cmp = compare_batches(base, cur);
  std::string json = compare_to_json(cmp);
  EXPECT_NE(json.find("\"schema\": \"lmbenchpp.compare.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"gate_passed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"class\": \"regressed\""), std::string::npos);
  EXPECT_NE(json.find("\"class\": \"improved\""), std::string::npos);
  EXPECT_NE(json.find("\"direction\": \"higher\""), std::string::npos);

  // Self-compare artifact: gate passes.
  json = compare_to_json(compare_batches(base, base));
  EXPECT_NE(json.find("\"gate_passed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"regressed\": 0"), std::string::npos);
}

// The acceptance scenario: a serialized batch round-trips through JSON and
// a synthetically degraded copy (inflated latencies, deflated bandwidths)
// is flagged while the identical copy is not.
TEST(CompareTest, DegradedBatchFlaggedAfterSerializeRoundTrip) {
  RunResult lat = make_result("lat_syscall", "us", 2.5, "us");
  attach_sample(lat, 2500.0, 50.0);
  RunResult bw = make_result("bw_mem_rd", "mbs", 18000.0, "MB/s");
  ResultBatch base = batch({lat, bw});

  ResultBatch same = from_json(to_json(base));
  EXPECT_FALSE(compare_batches(base, same).has_regressions());

  ResultBatch degraded = from_json(to_json(base));
  for (RunResult& r : degraded.results) {
    for (Metric& m : r.metrics) {
      if (m.unit == "us") m.value *= 1.5;
      if (m.unit == "MB/s") m.value *= 0.6;
    }
  }
  CompareReport cmp = compare_batches(base, degraded);
  EXPECT_EQ(cmp.regressed, 2);
  EXPECT_TRUE(cmp.has_regressions());
}

obs::RunEnvironment quiet_env() {
  obs::RunEnvironment env;
  env.hostname = "host-a";
  env.kernel = "6.1.0";
  env.governor = "performance";
  env.turbo = "off";
  env.loadavg1 = "0.10";
  return env;
}

TEST(CompareClockTest, MismatchedClockSourcesAreFlaggedPerBenchmark) {
  RunResult base_r = make_result("lat_pipe", "us", 100.0, "us");
  attach_sample(base_r, 100000.0, 0.0);
  base_r.measurement->clock_source = "wall";
  RunResult cur_r = base_r;
  cur_r.measurement->clock_source = "tsc";

  // A second benchmark timed the same way on both sides must not be flagged.
  RunResult same_base = make_result("bw_mem", "rd_mbs", 20000.0, "MB/s");
  attach_sample(same_base, 50.0, 0.0);
  same_base.measurement->clock_source = "tsc";
  RunResult same_cur = same_base;

  CompareReport cmp =
      compare_batches(batch({base_r, same_base}), batch({cur_r, same_cur}));
  ASSERT_EQ(cmp.clock_mismatches.size(), 1u);
  EXPECT_EQ(cmp.clock_mismatches[0], "lat_pipe: wall -> tsc");

  // Surfaced in both renderings.
  EXPECT_NE(render_environment_diff(cmp).find("clock-source change"), std::string::npos);
  std::string json = compare_to_json(cmp);
  EXPECT_NE(json.find("\"clock_mismatches\""), std::string::npos);
  EXPECT_NE(json.find("lat_pipe: wall -> tsc"), std::string::npos);
}

TEST(CompareClockTest, AgreeingOrAbsentClockSourcesStayQuiet) {
  RunResult a = make_result("lat_pipe", "us", 100.0, "us");
  attach_sample(a, 100000.0, 0.0);  // no clock_source recorded (older batch)
  CompareReport cmp = compare_batches(batch({a}), batch({a}));
  EXPECT_TRUE(cmp.clock_mismatches.empty());
  EXPECT_EQ(render_environment_diff(cmp).find("clock-source change"), std::string::npos);
}

TEST(CompareEnvTest, IdenticalProvenanceIsNotAMismatch) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  base.environment = quiet_env();
  ResultBatch cur = base;
  cur.environment->hostname = "host-b";  // informational only
  cur.environment->loadavg1 = "0.90";    // informational only

  CompareReport cmp = compare_batches(base, cur);
  EXPECT_TRUE(cmp.baseline_has_env);
  EXPECT_TRUE(cmp.current_has_env);
  EXPECT_EQ(cmp.env_deltas.size(), 2u);
  EXPECT_FALSE(cmp.env_mismatch());  // no significant field changed

  std::string diff = render_environment_diff(cmp);
  EXPECT_NE(diff.find("hostname"), std::string::npos);
  EXPECT_NE(diff.find("[info]"), std::string::npos);
  EXPECT_EQ(diff.find("[significant]"), std::string::npos) << diff;
}

TEST(CompareEnvTest, SignificantFieldChangeFlagsMismatch) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  base.environment = quiet_env();
  ResultBatch cur = base;
  cur.environment->governor = "powersave";
  cur.environment->kernel = "6.5.0";

  CompareReport cmp = compare_batches(base, cur);
  EXPECT_TRUE(cmp.env_mismatch());
  // Metric-level verdicts are untouched by provenance drift.
  EXPECT_FALSE(cmp.has_regressions());

  std::string diff = render_environment_diff(cmp);
  EXPECT_NE(diff.find("[significant] governor: 'performance' -> 'powersave'"),
            std::string::npos)
      << diff;
  EXPECT_NE(diff.find("[significant] kernel: '6.1.0' -> '6.5.0'"), std::string::npos);
}

TEST(CompareEnvTest, MissingSnapshotsAreReportedNotInvented) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  ResultBatch cur = base;
  cur.environment = quiet_env();

  CompareReport cmp = compare_batches(base, cur);
  EXPECT_FALSE(cmp.baseline_has_env);
  EXPECT_TRUE(cmp.current_has_env);
  EXPECT_TRUE(cmp.env_deltas.empty());  // nothing to diff against
  EXPECT_FALSE(cmp.env_mismatch());
  std::string diff = render_environment_diff(cmp);
  EXPECT_NE(diff.find("no provenance snapshot"), std::string::npos) << diff;

  // Neither side carries one: also not a mismatch.
  CompareReport bare = compare_batches(base, base);
  EXPECT_FALSE(bare.env_mismatch());
}

TEST(CompareEnvTest, JsonArtifactCarriesEnvironmentSection) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  base.environment = quiet_env();
  ResultBatch cur = base;
  cur.environment->governor = "powersave";

  std::string json = compare_to_json(compare_batches(base, cur));
  EXPECT_NE(json.find("\"env_mismatch\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"baseline_has_env\": true"), std::string::npos);
  EXPECT_NE(json.find("\"current_has_env\": true"), std::string::npos);
  EXPECT_NE(json.find("\"field\": \"governor\""), std::string::npos);
  EXPECT_NE(json.find("\"significant\": true"), std::string::npos);

  json = compare_to_json(compare_batches(base, base));
  EXPECT_NE(json.find("\"env_mismatch\": false"), std::string::npos);
}

TEST(CompareEnvTest, EnvironmentSurvivesSerializeRoundTripIntoCompare) {
  ResultBatch base = batch({make_result("lat_pipe", "us", 100.0, "us")});
  base.environment = quiet_env();
  ResultBatch cur = from_json(to_json(base));
  ASSERT_TRUE(cur.environment.has_value());
  cur.environment->turbo = "on";

  CompareReport cmp = compare_batches(base, cur);
  EXPECT_TRUE(cmp.env_mismatch());
  ASSERT_EQ(cmp.env_deltas.size(), 1u);
  EXPECT_EQ(cmp.env_deltas[0].field, "turbo");
  EXPECT_EQ(cmp.env_deltas[0].baseline, "off");
  EXPECT_EQ(cmp.env_deltas[0].current, "on");
  EXPECT_TRUE(cmp.env_deltas[0].significant);
}

}  // namespace
}  // namespace lmb::report
