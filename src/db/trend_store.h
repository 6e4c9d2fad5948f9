// Time-series result store — the baseline store (src/db/baseline_store.h)
// evolved from "newest run wins" into run *history*, the substrate for
// continuous benchmarking (ROOT-style performance CI; ROADMAP [service]).
//
// Layout: one shard directory per host under the store root, holding one
// append-only JSONL file per benchmark plus a run log:
//
//   <dir>/<host-shard>/runs.jsonl     one line per appended batch: sequence
//                                     number, system label, wall clock, and
//                                     the PR 5 provenance block
//   <dir>/<host-shard>/<bench>.jsonl  one line per run: {seq, wall_ms,
//                                     metrics:[{key, value, unit}]}
//
// Appends are O(1) in the stored history: the next sequence number comes
// from the run log's last valid line, read backwards from the end of the
// file, and each benchmark gains one appended line (no rewrite of history).
// Reads of one benchmark's trend touch exactly one shard file, and hosts
// never contend — the sharding a fleet of reporting machines needs.  Torn
// tails are expected (a crashed writer leaves a truncated last line): every
// reader skips lines that fail to parse, so history degrades by one point
// instead of becoming unreadable; the sequence number skips past them; and
// an append to a file whose last byte is not a newline starts its line on
// a fresh line, so the fragment cannot swallow the next run.  `compact`
// bounds file growth by dropping the oldest points.
#ifndef LMBENCHPP_SRC_DB_TREND_STORE_H_
#define LMBENCHPP_SRC_DB_TREND_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "src/report/serialize.h"

namespace lmb::db {

// One stored observation of one metric.
struct TrendPoint {
  long seq = 0;        // store-wide run sequence number within the shard
  double value = 0.0;
};

// One metric's history within one benchmark, sequence-ascending.
struct TrendSeries {
  std::string host;   // shard name
  std::string bench;  // RunResult::name
  std::string key;    // Metric::key ("us", "copy_p2_mbs", ...)
  std::string unit;   // display unit of the newest point
  std::vector<TrendPoint> points;
};

// One appended batch, as recorded in the shard's run log.
struct TrendRun {
  long seq = 0;
  std::string system;
  double total_wall_ms = 0.0;
  int results = 0;  // benchmarks recorded from this batch
  // Provenance fields (obs::environment_fields name/value pairs) captured
  // with the batch; empty when the batch carried no snapshot.
  std::map<std::string, std::string> env;
};

class TrendStore {
 public:
  // Does not touch the filesystem; shards are created on first append.
  explicit TrendStore(std::string dir);

  // Appends every ok-status result of `batch` under the shard for its
  // system label, assigning the next sequence number (the run log's last
  // valid sequence + 1).  Returns that sequence number.  Throws std::runtime_error when the shard cannot be
  // created or written.
  long append(const report::ResultBatch& batch);

  // Shard names, sorted.  Empty when the store directory is missing.
  std::vector<std::string> hosts() const;

  // Benchmarks recorded under one shard, sorted.
  std::vector<std::string> benches(const std::string& host) const;

  // Run log for one shard, sequence-ascending.  Unparseable lines (torn
  // tail) are skipped.
  std::vector<TrendRun> runs(const std::string& host) const;

  // Every metric's history for one benchmark, key-sorted; each series'
  // points are sequence-ascending.  Unparseable lines are skipped.
  std::vector<TrendSeries> series(const std::string& host, const std::string& bench) const;

  // Every series in the whole shard (one call for the trend report).
  std::vector<TrendSeries> all_series(const std::string& host) const;

  // Rewrites every shard file keeping only the newest `keep` runs per
  // benchmark (and the newest `keep` run-log lines).  Unparseable lines
  // are dropped in the process.
  void compact(size_t keep);

  // Imports a PR 3 baseline-store directory (baseline-NNNNNN.json files,
  // oldest first) as successive appends — the migration path.  Entries
  // that fail to parse are skipped.  Returns the number imported.
  size_t import_baselines(const std::string& baseline_dir);

  const std::string& dir() const { return dir_; }

  // Filesystem-safe shard name for a system label ("Linux/x86_64 host" ->
  // "Linux-x86_64-host"); every byte outside [A-Za-z0-9._-] becomes '-'.
  static std::string shard_name(const std::string& system);

 private:
  std::string dir_;
};

}  // namespace lmb::db

#endif  // LMBENCHPP_SRC_DB_TREND_STORE_H_
