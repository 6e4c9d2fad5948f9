#include "src/bw/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/bw/bw_mem.h"
#include "src/core/topology.h"

namespace lmb::bw {
namespace {

ParallelBwConfig quick_config(int threads) {
  ParallelBwConfig cfg;
  cfg.bytes = 1u << 20;  // 1 MB per worker keeps the test fast
  cfg.threads = threads;
  cfg.policy = TimingPolicy::quick();
  return cfg;
}

TEST(ParseThreadListTest, ParsesCommaSeparatedCounts) {
  EXPECT_EQ(parse_thread_list("1"), (std::vector<int>{1}));
  EXPECT_EQ(parse_thread_list("1,2,4"), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(parse_thread_list("4,2,2"), (std::vector<int>{4, 2, 2}));
}

TEST(ParseThreadListTest, RejectsGarbage) {
  EXPECT_THROW(parse_thread_list(""), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("1,"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("0"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("-2"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("two"), std::invalid_argument);
  EXPECT_THROW(parse_thread_list("1,2x"), std::invalid_argument);
}

TEST(ParallelBwTest, ResultShapeMatchesConfig) {
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, quick_config(2));
  EXPECT_EQ(r.op, MemOp::kCopyUnrolled);
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.bytes_per_worker, 1u << 20);
  EXPECT_EQ(r.per_worker_mb_per_sec.size(), 2u);
  EXPECT_EQ(r.cpus.size(), 2u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_GT(r.rounds, 0);
  // The resolved kernel is concrete, never kAuto.
  EXPECT_NE(r.kernel, KernelVariant::kAuto);
  for (double mbs : r.per_worker_mb_per_sec) {
    EXPECT_GT(mbs, 0.0);
  }
}

TEST(ParallelBwTest, AggregateIsSumOfPerWorker) {
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kWrite, quick_config(3));
  double sum = std::accumulate(r.per_worker_mb_per_sec.begin(),
                               r.per_worker_mb_per_sec.end(), 0.0);
  EXPECT_NEAR(r.aggregate_mb_per_sec, sum, sum * 1e-9);
}

// N=1 through the parallel harness measures the same thing as the
// single-stream path.  Generous tolerance: different buffers, calibration,
// and scheduling noise — this guards against accounting bugs (2x, 0.5x),
// not run-to-run jitter.
TEST(ParallelBwTest, SingleWorkerAgreesWithSingleStream) {
  ParallelBwConfig pcfg = quick_config(1);
  MemBwConfig scfg;
  scfg.bytes = pcfg.bytes;
  scfg.policy = TimingPolicy::quick();

  // Best of three interleaved rounds per side, as lmbench reports
  // bandwidth: one round slowed by another tenant of the machine must not
  // decide the comparison.
  double par_mb = 0.0;
  double single_mb = 0.0;
  for (int round = 0; round < 3; ++round) {
    par_mb = std::max(par_mb,
                      measure_mem_bw_parallel(MemOp::kReadSum, pcfg).aggregate_mb_per_sec);
    single_mb = std::max(single_mb, measure_mem_bw(MemOp::kReadSum, scfg).mb_per_sec);
  }

  ASSERT_GT(single_mb, 0.0);
  double ratio = par_mb / single_mb;
  EXPECT_GT(ratio, 0.5) << "parallel " << par_mb << " vs single " << single_mb;
  EXPECT_LT(ratio, 2.0) << "parallel " << par_mb << " vs single " << single_mb;
}

TEST(ParallelBwTest, KernelOverrideIsHonored) {
  ParallelBwConfig cfg = quick_config(1);
  cfg.kernel = KernelVariant::kScalar;
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, cfg);
  EXPECT_EQ(r.kernel, KernelVariant::kScalar);
}

TEST(ParallelBwTest, UnpinnedRunReportsNoCpus) {
  ParallelBwConfig cfg = quick_config(2);
  cfg.pin = false;
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, cfg);
  ASSERT_EQ(r.cpus.size(), 2u);
  EXPECT_EQ(r.cpus[0], -1);
  EXPECT_EQ(r.cpus[1], -1);
  EXPECT_GT(r.aggregate_mb_per_sec, 0.0);
}

TEST(ParallelBwTest, PinnedCpusComeFromTopologyWhenSupported) {
  if (!affinity_supported()) {
    GTEST_SKIP() << "affinity unsupported on this platform";
  }
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, quick_config(2));
  CpuTopology topo = query_topology();
  std::vector<int> order = topo.pin_order();
  for (size_t w = 0; w < r.cpus.size(); ++w) {
    if (r.cpus[w] >= 0) {
      EXPECT_EQ(r.cpus[w], order[w % order.size()]) << "worker " << w;
    }
  }
}

TEST(ParallelBwTest, OddSizesWork) {
  ParallelBwConfig cfg = quick_config(1);
  cfg.bytes = 100 * 1000 + 24;  // not a multiple of 256 bytes (32 words)
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, cfg);
  EXPECT_GT(r.aggregate_mb_per_sec, 0.0);
  EXPECT_EQ(r.bytes_per_worker % 8, 0u);  // rounded down to whole words
}

TEST(ParallelBwTest, TinyBufferThrows) {
  ParallelBwConfig cfg = quick_config(1);
  cfg.bytes = 4;  // smaller than one 8-byte word
  EXPECT_THROW(measure_mem_bw_parallel(MemOp::kCopyUnrolled, cfg), std::invalid_argument);
}

TEST(ParallelBwTest, ThreadsBelowOneBehaveAsOne) {
  ParallelBwConfig cfg = quick_config(0);
  ParallelBwResult r = measure_mem_bw_parallel(MemOp::kCopyUnrolled, cfg);
  EXPECT_EQ(r.threads, 1);
  EXPECT_EQ(r.per_worker_mb_per_sec.size(), 1u);
}

}  // namespace
}  // namespace lmb::bw
