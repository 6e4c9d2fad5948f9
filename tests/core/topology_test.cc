#include "src/core/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace lmb {
namespace {

TEST(TopologyTest, DiscoversAtLeastOneCpu) {
  CpuTopology topo = query_topology();
  ASSERT_GE(topo.logical_cpus(), 1);
  EXPECT_GE(topo.physical_cores(), 1);
  EXPECT_GE(topo.packages(), 1);
  EXPECT_LE(topo.physical_cores(), topo.logical_cpus());
  EXPECT_LE(topo.packages(), topo.physical_cores());
}

TEST(TopologyTest, RepeatQueriesAgree) {
  CpuTopology first = query_topology();
  for (int i = 0; i < 3; ++i) {
    CpuTopology again = query_topology();
    ASSERT_EQ(again.cpus.size(), first.cpus.size());
    for (size_t c = 0; c < first.cpus.size(); ++c) {
      EXPECT_EQ(again.cpus[c].cpu, first.cpus[c].cpu);
      EXPECT_EQ(again.cpus[c].core_id, first.cpus[c].core_id);
      EXPECT_EQ(again.cpus[c].package_id, first.cpus[c].package_id);
    }
    EXPECT_EQ(again.summary(), first.summary());
  }
}

TEST(TopologyTest, ParsesCpuLists) {
  EXPECT_EQ(parse_cpu_list("0-3,8,10-11"), (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{5}));
  EXPECT_TRUE(parse_cpu_list("").empty());
  EXPECT_EQ(parse_cpu_list("x,2"), (std::vector<int>{2}));  // malformed segment skipped
}

TEST(TopologyTest, CpusAreSortedAndUnique) {
  CpuTopology topo = query_topology();
  std::set<int> seen;
  int prev = -1;
  for (const LogicalCpu& c : topo.cpus) {
    EXPECT_GT(c.cpu, prev);
    prev = c.cpu;
    seen.insert(c.cpu);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), topo.logical_cpus());
}

TEST(TopologyTest, PinOrderIsAPermutationOfAllCpus) {
  CpuTopology topo = query_topology();
  std::vector<int> order = topo.pin_order();
  ASSERT_EQ(order.size(), topo.cpus.size());
  std::set<int> expected, got(order.begin(), order.end());
  for (const LogicalCpu& c : topo.cpus) {
    expected.insert(c.cpu);
  }
  EXPECT_EQ(got, expected);
}

TEST(TopologyTest, SummaryMentionsCounts) {
  CpuTopology topo = query_topology();
  std::string s = topo.summary();
  EXPECT_NE(s.find("cpu"), std::string::npos);
  EXPECT_NE(s.find("core"), std::string::npos);
  EXPECT_NE(s.find("socket"), std::string::npos);
}

TEST(TopologyTest, PinRoundTripsWhereSupported) {
  CpuTopology topo = query_topology();
  if (!affinity_supported()) {
    // Portable fallback contract: pinning is a graceful no-op.
    EXPECT_FALSE(pin_current_thread(0));
    EXPECT_EQ(current_cpu(), -1);
    return;
  }
  int target = topo.cpus.front().cpu;
  ASSERT_TRUE(pin_current_thread(target));
  EXPECT_EQ(current_cpu(), target);
  // Restore the full mask so later tests are unaffected.
  EXPECT_TRUE(unpin_current_thread(topo));
}

TEST(TopologyTest, PinRejectsBogusCpu) {
  EXPECT_FALSE(pin_current_thread(-1));
  EXPECT_FALSE(pin_current_thread(1 << 20));
}

TEST(PinnedThreadPoolTest, RunsEveryWorkerExactlyOnce) {
  PinnedThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_all([&](int w) { hits[w].fetch_add(1); });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[w].load(), 1);
  }
  // Reusable: a second round works.
  pool.run_all([&](int w) { hits[w].fetch_add(1); });
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(hits[w].load(), 2);
  }
}

TEST(PinnedThreadPoolTest, WorkersArePinnedToAssignedCpus) {
  PinnedThreadPool pool(2, /*pin=*/true);
  const std::vector<int>& cpus = pool.assigned_cpus();
  ASSERT_EQ(cpus.size(), 2u);
  if (!affinity_supported()) {
    EXPECT_EQ(cpus[0], -1);
    EXPECT_EQ(cpus[1], -1);
    return;
  }
  std::mutex mu;
  std::vector<int> observed(2, -2);
  pool.run_all([&](int w) {
    std::lock_guard<std::mutex> lock(mu);
    observed[w] = current_cpu();
  });
  for (int w = 0; w < 2; ++w) {
    if (cpus[w] >= 0) {
      EXPECT_EQ(observed[w], cpus[w]) << "worker " << w;
    }
  }
}

TEST(PinnedThreadPoolTest, UnpinnedPoolWorks) {
  PinnedThreadPool pool(3, /*pin=*/false);
  const std::vector<int>& cpus = pool.assigned_cpus();
  for (int cpu : cpus) {
    EXPECT_EQ(cpu, -1);
  }
  std::atomic<int> total{0};
  pool.run_all([&](int w) { total.fetch_add(w + 1); });
  EXPECT_EQ(total.load(), 1 + 2 + 3);
}

TEST(PinnedThreadPoolTest, MinimumOneWorker) {
  PinnedThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
}

TEST(PinnedThreadPoolTest, WorkerExceptionPropagates) {
  PinnedThreadPool pool(2);
  EXPECT_THROW(pool.run_all([&](int w) {
                 if (w == 1) {
                   throw std::runtime_error("boom");
                 }
               }),
               std::runtime_error);
  // The pool survives a throwing round.
  std::atomic<int> count{0};
  pool.run_all([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace lmb
