// The benchmark harness's own tests: metric names and units, the metric
// list, the output checks against corrupted results, the span file, and
// every workload passing its checks at a short length.
//
// Run with `python3 perfbench/run.py --self-test` from the checkout root.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "perfbench/src/checks.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/output.h"
#include "src/core/registry.h"
#include "src/report/json.h"
#include "src/report/serialize.h"
#include "src/report/trace_io.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lmb::report::JsonValue;
using lmb::report::parse_json;

fs::path test_dir() {
  static const fs::path dir = [] {
    fs::path d = fs::path(".bench_out") / ("test-" + std::to_string(::getpid()));
    fs::create_directories(d / "tmp");
    ::setenv("TMPDIR", fs::absolute(d / "tmp").c_str(), 1);
    return d;
  }();
  return dir;
}

// Removes the scratch directory once every test has run.
class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(test_dir(), ec);
  }
};
::testing::Environment* const kCleanup = ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

// One traced pass of every workload at a short length, shared by the
// tests below (the suite alone takes a few seconds).
struct ShortRuns {
  std::map<std::string, PassResult> passes;
  std::map<std::string, std::size_t> spans;
};

const ShortRuns& short_runs() {
  static const ShortRuns runs = [] {
    ShortRuns r;
    for (const std::string& w : workload_names()) {
      SpanRecorder spans;
      PassConfig config;
      config.seed = 7;
      config.seconds = 0.5;
      config.workdir = test_dir() / w;
      config.spans = &spans;
      r.passes[w] = run_pass(w, config);
      r.spans[w] = spans.size();
    }
    return r;
  }();
  return runs;
}

std::set<std::string> names_of(const std::vector<Metric>& metrics) {
  std::set<std::string> names;
  for (const Metric& m : metrics) {
    names.insert(m.name);
  }
  return names;
}

TEST(ShortRun, EveryWorkloadPassesItsChecks) {
  for (const auto& [name, pass] : short_runs().passes) {
    SCOPED_TRACE(name);
    EXPECT_GE(pass.attempted, 1u);
    EXPECT_EQ(pass.failed, 0u);
    EXPECT_TRUE(pass.check_failures.empty())
        << (pass.check_failures.empty() ? "" : pass.check_failures.front());
    EXPECT_GT(short_runs().spans.at(name), 0u);
  }
}

TEST(Metrics, EveryEmittedNameIsValidAndCarriesAUnit) {
  std::vector<PassResult> traced;
  for (const auto& [name, pass] : short_runs().passes) {
    traced.push_back(pass);
  }
  std::vector<Metric> all = layer_metrics(traced);
  for (const PassResult& p : traced) {
    for (const std::vector<Metric>* list : {&p.end_to_end, &p.named, &p.layer}) {
      all.insert(all.end(), list->begin(), list->end());
    }
    for (const Metric& m : overhead_metrics(p, p, 1)) {
      all.push_back(m);
    }
  }
  ASSERT_FALSE(all.empty());
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  for (const Metric& m : all) {
    EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
    EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.name << " " << m.unit;
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

TEST(Metrics, EveryEndToEndMetricIsReportedByEveryWorkload) {
  for (const auto& [name, pass] : short_runs().passes) {
    SCOPED_TRACE(name);
    std::vector<Metric> e2e = end_to_end_metrics(pass);
    ASSERT_EQ(e2e.size(), end_to_end_specs().size());
    for (size_t i = 0; i < e2e.size(); ++i) {
      EXPECT_EQ(e2e[i].name, end_to_end_specs()[i].name);
      EXPECT_EQ(e2e[i].unit, end_to_end_specs()[i].unit);
      EXPECT_GT(e2e[i].value, 0) << e2e[i].name;  // end-to-end metrics are never 0
    }
  }
}

TEST(Metrics, EveryMetricTheWorkloadListNamesIsEmitted) {
  const std::map<std::string, std::vector<std::string>> named = {
      {"echo_closed",
       {"ops_per_s", "lat_p50_us", "lat_p95_us", "lat_p99_us", "lat_tail_rounds_median_us",
        "setup_s", "error_rate", "peak_rss_mb", "samples"}},
      {"rpc_open",
       {"lat_p50_us", "lat_p95_us", "lat_tail_rounds_median_us", "setup_s", "error_rate",
        "peak_rss_mb", "samples"}},
      {"suite_quick", {"wall_s", "setup_s", "error_rate", "peak_rss_mb"}},
      {"daemon_ops",
       {"ops_per_s", "status_p50_us", "status_p95_us", "status_p99_us", "submit_p50_ms",
        "lat_tail_rounds_median_us", "setup_s", "error_rate", "peak_rss_mb", "status_samples"}},
  };
  const std::vector<std::string> load_layer = {
      "lat.server.cpu_ns_per_req", "lat.server.wakeups_per_req", "lat.server.bytes_out_per_req",
      "lat.gen.cpu_ns_per_req",    "lat.gen.samples",            "lat.gen.p99_us",
      "lat.gen.p999_us",           "proc.user_ns_per_req",       "proc.sys_ns_per_req",
      "proc.nvcsw_per_req",        "proc.nivcsw_per_s"};
  std::map<std::string, std::vector<std::string>> layer = {
      {"echo_closed", load_layer},
      {"rpc_open", load_layer},
      {"suite_quick",
       {"core.calibration_ms", "core.warmup_ms", "core.measure_ms", "core.fixed_window_ms",
        "core.cal_misses", "svc.setup_ms", "svc.run_overhead_ms", "proc.nivcsw_per_s"}},
      {"daemon_ops",
       {"core.cal_hits", "svc.job_overhead_ms", "svc.threads_end", "svc.vmsize_growth_kb_per_op",
        "proc.nivcsw_per_s"}},
  };
  layer["rpc_open"].push_back("lat.gen.achieved_ratio");
  for (const lmb::BenchmarkInfo* info : lmb::Registry::global().list()) {
    layer["suite_quick"].push_back("core.wall_ms." + info->name);
  }
  for (const auto& [workload, pass] : short_runs().passes) {
    SCOPED_TRACE(workload);
    const std::set<std::string> have_named = names_of(pass.named);
    for (const std::string& n : named.at(workload)) {
      EXPECT_TRUE(have_named.count(n)) << n;
    }
    const std::set<std::string> have_layer = names_of(pass.layer);
    for (const std::string& n : layer.at(workload)) {
      EXPECT_TRUE(have_layer.count(n)) << n;
    }
  }
  const std::set<std::string> overhead =
      names_of(overhead_metrics(short_runs().passes.at("echo_closed"),
                                short_runs().passes.at("echo_closed"), 1));
  for (const char* n : {"trace_overhead.ops_per_s", "trace_overhead.lat_p50_us",
                        "trace_overhead.lat_tail_us", "trace_overhead.setup_s", "trace.spans"}) {
    EXPECT_TRUE(overhead.count(n)) << n;
  }
}

TEST(Output, ResultLineHasExactlyTheFourKeys) {
  const std::string line =
      result_line(true, 3, 0, {{"setup_s", 0.125, "s"}, {"lat_p50_us", 31.5, "us"}});
  const JsonValue doc = parse_json(line);
  const auto& obj = doc.object();
  EXPECT_EQ(obj.size(), 4u);
  EXPECT_TRUE(obj.at("correct").boolean());
  EXPECT_EQ(obj.at("attempted").number(), 3);
  EXPECT_EQ(obj.at("failed").number(), 0);
  EXPECT_EQ(obj.at("metrics").object().at("setup_s").object().at("value").number(), 0.125);
  EXPECT_EQ(obj.at("metrics").object().at("lat_p50_us").object().at("unit").str(), "us");
}

TEST(Output, SpansRoundTripThroughTheTraceReader) {
  SpanRecorder spans;
  {
    SpanRecorder::Span outer = span(&spans, "bench", "pass");
    SpanRecorder::Span inner = span(&spans, "lat.gen", "run_load", outer.id(), 4);
  }
  SpanRecorder::Span ignored = span(nullptr, "bench", "untraced");  // records nothing
  ignored.end();
  EXPECT_EQ(spans.size(), 2u);
  const fs::path path = test_dir() / "spans.json";
  write_spans(path, spans, PassResult{});
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const lmb::report::TraceDoc doc = lmb::report::trace_from_json(text.str());
  ASSERT_EQ(doc.events.size(), 2u);
  std::map<std::string, std::map<std::string, std::string>> args;
  for (const lmb::obs::TraceEvent& e : doc.events) {
    EXPECT_GE(e.dur, 0);
    args[e.name] = {e.args.begin(), e.args.end()};
  }
  EXPECT_EQ(args["run_load"]["parent"], args["pass"]["id"]);
  EXPECT_EQ(args["run_load"]["op"], "4");
  EXPECT_EQ(args["pass"]["parent"], "0");
}

TEST(Harness, QuietQuartilesAndRoundAggregates) {
  const std::vector<double> v = {7, 1, 10, 4, 2, 9, 3, 8, 6, 5};  // lmb::Sample: 3.25, 5.5, 7.75
  EXPECT_DOUBLE_EQ(quiet_quartile(v, true), 7.75);
  EXPECT_DOUBLE_EQ(quiet_quartile(v, false), 3.25);
  EXPECT_DOUBLE_EQ(median(v), 5.5);
  EXPECT_DOUBLE_EQ(percentile({3.0}, 75), 3.0);
  EXPECT_TRUE(std::isnan(median({})));

  const std::vector<std::vector<Metric>> rows = {
      {{"ops_per_s", 1, "1/s", OverRounds::kQuietThroughput},
       {"lat_p50_us", 10, "us", OverRounds::kQuietLatency},
       {"setup_s", 1, "s"}},
      {{"ops_per_s", 2, "1/s", OverRounds::kQuietThroughput},
       {"lat_p50_us", 20, "us", OverRounds::kQuietLatency},
       {"setup_s", 2, "s"}},
      {{"ops_per_s", 5, "1/s", OverRounds::kQuietThroughput},
       {"lat_p50_us", 30, "us", OverRounds::kQuietLatency}},
  };
  const std::vector<Metric> agg = aggregate_rows(rows);
  ASSERT_EQ(agg.size(), 2u);                // setup_s is missing from a row
  EXPECT_DOUBLE_EQ(agg[0].value, 3.5);      // throughput: third quartile
  EXPECT_DOUBLE_EQ(agg[1].value, 15);       // latency: first quartile
  EXPECT_DOUBLE_EQ(aggregate_rows({rows[0], rows[1]}).back().value, 1.5);  // set-up: median

  const std::vector<Metric> picked =
      select_metrics(agg, {{"lat_p50_us", "lat_tail_us"}, {"absent", "x"}, {"ops_per_s", "ops_per_s"}});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].name, "lat_tail_us");
  EXPECT_EQ(picked[0].unit, "us");
  EXPECT_DOUBLE_EQ(picked[0].value, 15);
  EXPECT_EQ(picked[1].name, "ops_per_s");
}

// ---- each check rejects a deliberately corrupted result ------------------

LoadFacts good_echo() {
  LoadFacts f;
  f.echo = true;
  f.connections_requested = f.connections_established = 4;
  f.hist_count = f.requests = 1000;
  f.gen_total = 1100;
  f.request_bytes = 64;
  f.server_bytes_in = f.server_bytes_out = 1100 * 64;
  return f;
}

TEST(Checks, LoadRejectsEachCorruption) {
  EXPECT_TRUE(check_load(good_echo()).empty());
  LoadFacts f = good_echo();
  f.hist_count = 999;
  EXPECT_EQ(check_load(f).size(), 1u);
  f = good_echo();
  f.connections_established = 3;
  EXPECT_EQ(check_load(f).size(), 1u);
  f = good_echo();
  f.server_bytes_in = f.server_bytes_out = 1099 * 64;  // served fewer than the generator sent
  EXPECT_EQ(check_load(f).size(), 1u);
  f = good_echo();
  f.server_bytes_in += 64;
  EXPECT_EQ(check_load(f).size(), 1u);

  LoadFacts rpc = good_echo();
  rpc.echo = false;
  rpc.server_requests = 1100;
  rpc.server_bytes_out = 1100 * 68;
  EXPECT_TRUE(check_load(rpc).empty());
  rpc.server_requests = 1099;
  EXPECT_EQ(check_load(rpc).size(), 1u);
}

lmb::RunResult ok_result(const std::string& name, int metrics) {
  lmb::RunResult r;
  r.name = name;
  r.category = "latency";
  for (int i = 0; i < metrics; ++i) {
    r.add("m" + std::to_string(i) + "_us", 1.5 + i, "us");
  }
  return r;
}

TEST(Checks, SuiteResultRejectsFailuresAndMissingMetrics) {
  EXPECT_FALSE(check_suite_result(ok_result("lat_syscall", 1)).has_value());
  lmb::RunResult failed = ok_result("lat_syscall", 1);
  failed.status = lmb::RunStatus::kError;
  failed.error = "boom";
  EXPECT_TRUE(check_suite_result(failed).has_value());
  EXPECT_TRUE(check_suite_result(ok_result("lat_syscall", 0)).has_value());
  lmb::RunResult nan_only = ok_result("lat_syscall", 0);
  nan_only.add("x_us", std::nan(""), "us");
  EXPECT_TRUE(check_suite_result(nan_only).has_value());
}

TEST(Checks, ResultsJsonRejectsADocumentThatDiffersFromTheRun) {
  lmb::report::ResultBatch batch;
  batch.system = "test";
  batch.results = {ok_result("a", 2), ok_result("b", 1)};
  const std::string text = lmb::report::to_json(batch);
  EXPECT_FALSE(check_results_json(batch.results, text).has_value());

  std::vector<lmb::RunResult> more = batch.results;
  more.push_back(ok_result("c", 1));
  EXPECT_TRUE(check_results_json(more, text).has_value());
  std::vector<lmb::RunResult> extra_metric = batch.results;
  extra_metric[1].add("z_us", 2.0, "us");
  EXPECT_TRUE(check_results_json(extra_metric, text).has_value());
  EXPECT_TRUE(check_results_json(batch.results, text.substr(0, text.size() / 2)).has_value());
}

TEST(Checks, SubmitDoneRejectsAFailedJob) {
  EXPECT_FALSE(
      check_submit_done(parse_json(R"({"event":"done","ok":true,"exit_code":0})")).has_value());
  EXPECT_TRUE(
      check_submit_done(parse_json(R"({"event":"done","ok":true,"exit_code":1})")).has_value());
  EXPECT_TRUE(
      check_submit_done(parse_json(R"({"event":"done","ok":false,"exit_code":2})")).has_value());
  EXPECT_TRUE(
      check_submit_done(parse_json(R"({"event":"queued","ok":true,"job":1})")).has_value());
  EXPECT_TRUE(check_submit_done(parse_json(R"([1,2])")).has_value());
}

TEST(Checks, ResultsReplyMustParseAndNameTheBenchmark) {
  lmb::report::ResultBatch batch;
  batch.system = "test";
  batch.results = {ok_result("lat_syscall", 1)};
  const std::string good = "{\"ok\":true,\"results\":" + lmb::report::to_json(batch) + "}";
  EXPECT_FALSE(check_results_reply(parse_json(good), "lat_syscall").has_value());
  EXPECT_TRUE(check_results_reply(parse_json(good), "lat_pipe").has_value());
  EXPECT_TRUE(
      check_results_reply(parse_json(R"({"ok":true,"results":null})"), "lat_syscall").has_value());
  EXPECT_TRUE(check_results_reply(parse_json(R"({"ok":true,"results":{"schema":"x"}})"),
                                  "lat_syscall")
                  .has_value());
  EXPECT_TRUE(check_results_reply(parse_json(R"({"ok":false})"), "lat_syscall").has_value());
}

}  // namespace
}  // namespace perfbench
