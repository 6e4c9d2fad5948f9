// Baseline store: sequence-numbered batch persistence under one directory.
#include "src/db/baseline_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb::db {
namespace {

namespace fs = std::filesystem;

report::ResultBatch make_batch(const std::string& system, double lat_us) {
  RunResult r;
  r.name = "lat_pipe";
  r.category = "latency";
  r.add("us", lat_us, "us");
  return report::ResultBatch{system, {r}, {}, {}};
}

class BaselineStoreTest : public ::testing::Test {
 protected:
  sys::TempDir tmp_;
};

TEST_F(BaselineStoreTest, EmptyStoreHasNoBaseline) {
  BaselineStore store(tmp_.path() + "/baselines");
  EXPECT_TRUE(store.list().empty());
  EXPECT_FALSE(store.latest_path().has_value());
  EXPECT_FALSE(store.load_latest().has_value());
}

TEST_F(BaselineStoreTest, SaveCreatesDirectoryAndSequencesEntries) {
  BaselineStore store(tmp_.path() + "/baselines");
  std::string first = store.save(make_batch("host", 10.0));
  std::string second = store.save(make_batch("host", 11.0));
  EXPECT_NE(first, second);
  EXPECT_TRUE(fs::exists(first));
  EXPECT_TRUE(fs::exists(second));

  std::vector<std::string> entries = store.list();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], first);
  EXPECT_EQ(entries[1], second);
  EXPECT_EQ(store.latest_path().value(), second);

  std::optional<report::ResultBatch> latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  ASSERT_EQ(latest->results.size(), 1u);
  EXPECT_DOUBLE_EQ(latest->results[0].metrics[0].value, 11.0);
}

TEST_F(BaselineStoreTest, SequenceSurvivesReopen) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore(dir).save(make_batch("host", 1.0));
  std::string second = BaselineStore(dir).save(make_batch("host", 2.0));
  EXPECT_NE(second.find("baseline-000002.json"), std::string::npos) << second;
}

TEST_F(BaselineStoreTest, IgnoresUnrelatedFiles) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore store(dir);
  store.save(make_batch("host", 1.0));
  std::ofstream(dir + "/notes.txt") << "not a baseline";
  std::ofstream(dir + "/baseline-abc.json") << "bad sequence";
  ASSERT_EQ(store.list().size(), 1u);
}

TEST_F(BaselineStoreTest, CorruptLatestFallsBackToNewestValidEntry) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore store(dir);
  store.save(make_batch("host", 1.0));
  store.save(make_batch("host", 2.0));
  std::ofstream(dir + "/baseline-000003.json") << "{ not json";

  // A torn/corrupt newest entry (crashed writer) degrades by one entry
  // instead of wedging every future comparison.
  std::string path_used;
  std::optional<report::ResultBatch> latest = store.load_latest(&path_used);
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->results[0].metrics[0].value, 2.0);
  EXPECT_NE(path_used.find("baseline-000002.json"), std::string::npos) << path_used;
}

TEST_F(BaselineStoreTest, TruncatedLatestFallsBack) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore store(dir);
  store.save(make_batch("host", 7.0));
  std::string full = report::to_json(make_batch("host", 8.0));
  std::ofstream(dir + "/baseline-000002.json") << full.substr(0, full.size() / 2);

  std::optional<report::ResultBatch> latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->results[0].metrics[0].value, 7.0);
}

TEST_F(BaselineStoreTest, AllEntriesCorruptStillFailsLoudly) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore store(dir);
  store.save(make_batch("host", 1.0));
  std::ofstream(dir + "/baseline-000001.json", std::ios::trunc) << "{ not json";
  EXPECT_THROW(store.load_latest(), std::invalid_argument);
}

TEST_F(BaselineStoreTest, SequenceContinuesPastCorruptAndPrunedEntries) {
  std::string dir = tmp_.path() + "/baselines";
  BaselineStore store(dir);
  for (int i = 1; i <= 3; ++i) {
    store.save(make_batch("host", static_cast<double>(i)));
  }
  // Corrupt the newest and prune the oldest: new saves must still advance
  // the sequence (never reuse or renumber), so history stays append-only.
  std::ofstream(dir + "/baseline-000003.json", std::ios::trunc) << "garbage";
  store.prune(2);
  std::string next = store.save(make_batch("host", 4.0));
  EXPECT_NE(next.find("baseline-000004.json"), std::string::npos) << next;
}

TEST_F(BaselineStoreTest, PruneKeepsNewestEntries) {
  BaselineStore store(tmp_.path() + "/baselines");
  for (int i = 1; i <= 5; ++i) {
    store.save(make_batch("host", static_cast<double>(i)));
  }
  store.prune(2);
  std::vector<std::string> entries = store.list();
  ASSERT_EQ(entries.size(), 2u);
  std::optional<report::ResultBatch> latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(latest->results[0].metrics[0].value, 5.0);
}

TEST_F(BaselineStoreTest, LoadReadsArbitraryPaths) {
  std::string path = tmp_.path() + "/one-off.json";
  sys::write_file(path, report::to_json(make_batch("elsewhere", 3.0)));
  report::ResultBatch batch = BaselineStore::load(path);
  EXPECT_EQ(batch.system, "elsewhere");
  EXPECT_THROW(BaselineStore::load(tmp_.path() + "/missing.json"), std::exception);
}

}  // namespace
}  // namespace lmb::db
