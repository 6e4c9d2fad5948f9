// Trend store: sharded append-only run history with torn-tail tolerance.
#include "src/db/trend_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "src/db/baseline_store.h"
#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::db {
namespace {

namespace fs = std::filesystem;

report::ResultBatch make_batch(const std::string& system, double lat_us,
                               double bw_mbs = 0.0) {
  report::ResultBatch batch;
  batch.system = system;
  RunResult lat;
  lat.name = "lat_pipe";
  lat.category = "latency";
  lat.add("us", lat_us, "us");
  batch.results.push_back(lat);
  if (bw_mbs > 0) {
    RunResult bw;
    bw.name = "bw_mem";
    bw.category = "bandwidth";
    bw.add("mbs", bw_mbs, "MB/s");
    batch.results.push_back(bw);
  }
  return batch;
}

class TrendStoreTest : public ::testing::Test {
 protected:
  std::string dir() const { return tmp_.path() + "/trends"; }
  sys::TempDir tmp_;
};

TEST_F(TrendStoreTest, EmptyStoreHasNoHosts) {
  TrendStore store(dir());
  EXPECT_TRUE(store.hosts().empty());
  EXPECT_FALSE(fs::exists(dir()));  // constructor must not touch the disk
}

TEST_F(TrendStoreTest, AppendAssignsAscendingSequences) {
  TrendStore store(dir());
  EXPECT_EQ(store.append(make_batch("host", 10.0)), 1);
  EXPECT_EQ(store.append(make_batch("host", 11.0)), 2);
  EXPECT_EQ(TrendStore(dir()).append(make_batch("host", 12.0)), 3);  // reopen

  std::vector<std::string> hosts = store.hosts();
  ASSERT_EQ(hosts.size(), 1u);
  std::vector<TrendRun> runs = store.runs(hosts[0]);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].seq, 1);
  EXPECT_EQ(runs[2].seq, 3);
}

TEST_F(TrendStoreTest, SeriesReadBackInSequenceOrder) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0, 5000.0));
  store.append(make_batch("host", 12.0, 5100.0));
  std::string host = store.hosts()[0];

  EXPECT_EQ(store.benches(host), (std::vector<std::string>{"bw_mem", "lat_pipe"}));
  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].key, "us");
  EXPECT_EQ(series[0].unit, "us");
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[0].points[0].seq, 1);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 12.0);

  // all_series covers both benchmarks.
  EXPECT_EQ(store.all_series(host).size(), 2u);
}

TEST_F(TrendStoreTest, HostsShardIndependently) {
  TrendStore store(dir());
  store.append(make_batch("alpha", 1.0));
  store.append(make_batch("beta", 2.0));
  store.append(make_batch("alpha", 3.0));
  ASSERT_EQ(store.hosts().size(), 2u);
  // Sequences are per shard: beta's one run is seq 1, not 2.
  EXPECT_EQ(store.runs(TrendStore::shard_name("beta"))[0].seq, 1);
  EXPECT_EQ(store.runs(TrendStore::shard_name("alpha")).size(), 2u);
}

TEST_F(TrendStoreTest, ShardNameIsFilesystemSafe) {
  EXPECT_EQ(TrendStore::shard_name("Linux/x86_64 box"), "Linux-x86_64-box");
  EXPECT_EQ(TrendStore::shard_name("a.b_c-d"), "a.b_c-d");
}

TEST_F(TrendStoreTest, TornTailIsSkippedNotFatal) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  store.append(make_batch("host", 11.0));
  std::string host = store.hosts()[0];

  // A crashed writer leaves a truncated last line in both files.
  std::ofstream(dir() + "/" + host + "/lat_pipe.jsonl", std::ios::app)
      << "{\"seq\": 3, \"metr";
  std::ofstream(dir() + "/" + host + "/runs.jsonl", std::ios::app) << "{\"seq\"";

  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points.size(), 2u);  // torn point dropped
  EXPECT_EQ(store.runs(host).size(), 2u);
  // The next append must advance past the highest *valid* sequence.
  EXPECT_EQ(store.append(make_batch("host", 12.0)), 3);
  // ...and must not be glued onto the fragment: the run after it still
  // sees seq 3, and every appended run stays readable.
  EXPECT_EQ(store.append(make_batch("host", 13.0)), 4);
  std::vector<TrendRun> runs = store.runs(host);
  ASSERT_EQ(runs.size(), 4u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].seq, static_cast<long>(i + 1));
  }
  series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0].points[2].value, 12.0);
  EXPECT_DOUBLE_EQ(series[0].points[3].value, 13.0);
}

TEST_F(TrendStoreTest, SeqComesFromTheLastValidLineBehindAWideTornTail) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  std::string host = store.hosts()[0];
  // Damage wider than one read of the log's end: the backward walk must
  // keep going until it reaches the valid line.
  std::ofstream(dir() + "/" + host + "/runs.jsonl", std::ios::app)
      << std::string(10000, 'x') << "\n{\"seq\":\n" << std::string(20000, 'y');
  EXPECT_EQ(store.append(make_batch("host", 11.0)), 2);
  EXPECT_EQ(store.runs(host).size(), 2u);
}

TEST_F(TrendStoreTest, AppendCostDoesNotGrowWithHistory) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  std::string host = store.hosts()[0];
  // 50 000 stored runs, written directly: the run log a long-lived
  // daemon accumulates.
  std::string text;
  for (int seq = 1; seq <= 50000; ++seq) {
    text += "{\"seq\":" + std::to_string(seq) +
            ",\"system\":\"host\",\"total_wall_ms\":1,\"results\":1,\"env\":{"
            "\"kernel\":\"6.1.0-test\",\"governor\":\"performance\"}}\n";
  }
  sys::write_file(dir() + "/" + host + "/runs.jsonl", text);

  const auto start = std::chrono::steady_clock::now();
  const long seq = store.append(make_batch("host", 11.0));
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(seq, 50001);
  EXPECT_LT(took, std::chrono::milliseconds(20));
}

TEST_F(TrendStoreTest, EmptyOrUnparseableRunLogStartsAtOne) {
  TrendStore store(dir());
  store.append(make_batch("host", 10.0));
  std::string host = store.hosts()[0];
  sys::write_file(dir() + "/" + host + "/runs.jsonl", "");
  EXPECT_EQ(store.append(make_batch("host", 11.0)), 1);
  sys::write_file(dir() + "/" + host + "/runs.jsonl", "garbage\n{\"seq\"\n\n");
  EXPECT_EQ(store.append(make_batch("host", 12.0)), 1);
}

TEST_F(TrendStoreTest, NonOkResultsAreNotRecorded) {
  TrendStore store(dir());
  report::ResultBatch batch = make_batch("host", 10.0);
  RunResult bad;
  bad.name = "lat_broken";
  bad.category = "latency";
  bad.status = RunStatus::kError;
  batch.results.push_back(bad);
  store.append(batch);
  std::string host = store.hosts()[0];
  EXPECT_EQ(store.benches(host), (std::vector<std::string>{"lat_pipe"}));
}

TEST_F(TrendStoreTest, AppendRecordsProvenance) {
  TrendStore store(dir());
  report::ResultBatch batch = make_batch("host", 10.0);
  obs::RunEnvironment env;
  env.governor = "performance";
  env.kernel = "6.1.0-test";
  batch.environment = env;
  store.append(batch);
  std::vector<TrendRun> runs = store.runs(store.hosts()[0]);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].env.empty());
}

TEST_F(TrendStoreTest, CompactKeepsNewestRuns) {
  TrendStore store(dir());
  for (int i = 1; i <= 6; ++i) {
    store.append(make_batch("host", static_cast<double>(i)));
  }
  store.compact(2);
  std::string host = store.hosts()[0];
  std::vector<TrendSeries> series = store.series(host, "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 5.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 6.0);
  EXPECT_EQ(store.runs(host).size(), 2u);
  // Sequence numbers survive compaction — history is renumber-free.
  EXPECT_EQ(series[0].points[1].seq, 6);
  EXPECT_EQ(store.append(make_batch("host", 7.0)), 7);
}

TEST_F(TrendStoreTest, ImportsBaselineStoreHistory) {
  std::string baselines = tmp_.path() + "/baselines";
  BaselineStore old_store(baselines);
  old_store.save(make_batch("host", 10.0));
  old_store.save(make_batch("host", 11.0));
  std::ofstream(baselines + "/baseline-000003.json") << "{ corrupt";  // skipped

  TrendStore store(dir());
  EXPECT_EQ(store.import_baselines(baselines), 2u);
  std::vector<TrendSeries> series = store.series(store.hosts()[0], "lat_pipe");
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);
}

}  // namespace
}  // namespace lmb::db
