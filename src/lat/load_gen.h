// Many-connection TCP load generator — the client half of the c10k
// scenarios.
//
// Drives N concurrent connections against a LoadServer (or any compatible
// echo/RPC/sink endpoint) from `shards` epoll event loops (think-time and
// arrival deadlines in a per-shard hashed timer wheel, src/lat/timer_wheel.h,
// so scheduling stays O(1) at c10k connection counts), in either of the two
// canonical load-testing disciplines:
//
//  * closed loop: every connection keeps exactly one request in flight,
//    optionally pausing `think_time` between a reply and the next request.
//    Offered load adapts to service rate — the paper's lat_tcp is the
//    N = 1, think = 0 special case.
//  * open loop: requests arrive on a global schedule (Poisson or uniform
//    interarrivals at `rate_per_sec`) regardless of completions, queueing
//    for an idle connection when all are busy.  Latency is measured from
//    the *scheduled* arrival, so queueing delay — the part closed-loop
//    measurement structurally hides (coordinated omission) — lands in the
//    tail percentiles where it belongs.
//
// Every request contributes one RTT observation to a fixed-memory log-linear
// histogram (src/obs/histogram.h), so percentiles cost O(buckets) regardless
// of request count and peak RSS no longer grows with --max-requests.  A
// bounded uniform reservoir of raw RTTs rides along purely so tests and CI
// can cross-check histogram percentiles against an exact reference, and an
// optional interval series (--interval-ms) rotates a fresh histogram every
// window for time × latency heatmaps and live `watch` streaming.
#ifndef LMBENCHPP_SRC_LAT_LOAD_GEN_H_
#define LMBENCHPP_SRC_LAT_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/clock.h"
#include "src/core/stats.h"
#include "src/obs/histogram.h"

namespace lmb::lat {

enum class ArrivalMode {
  kClosedLoop,   // fixed concurrency, optional think time
  kOpenPoisson,  // exponential interarrivals at rate_per_sec
  kOpenUniform,  // fixed interarrivals at rate_per_sec
};

// What each connection sends/expects.  Mirrors ServerProtocol.
enum class ClientProtocol {
  kEcho,    // request_bytes out, the same bytes back
  kRpc,     // 4-byte big-endian length + request_bytes out; 4 + reply_bytes back
  kStream,  // continuous blocks of request_bytes out, nothing back (fan-in bw)
};

struct LoadGenConfig {
  std::uint16_t port = 0;  // required
  int connections = 64;
  ClientProtocol protocol = ClientProtocol::kEcho;
  std::uint32_t request_bytes = 64;
  // kRpc: reply payload the server is configured to send.
  std::uint32_t reply_bytes = 64;
  ArrivalMode arrival = ArrivalMode::kClosedLoop;
  // Open-loop aggregate arrival rate (requests/s); required for open modes.
  double rate_per_sec = 0.0;
  // Closed-loop pause between receiving a reply and issuing the next
  // request on that connection.
  Nanos think_time = 0;
  // Measured window; samples during the preceding warmup are kept separate.
  Nanos duration = kSecond;
  Nanos warmup = 100 * kMillisecond;
  // Optional completion cap (0 = duration-bounded only).
  std::uint64_t max_requests = 0;
  std::uint64_t seed = 42;
  // Time source for RTT stamps; nullptr = selected_clock() (so --clock=tsc
  // reaches per-request timestamps like every other measurement).
  const Clock* clock = nullptr;
  // Generator worker shards.  Each is an independent event loop driving
  // connections/shards connections with its own epoll set, RNG
  // (seed + shard) and timer wheel; open-loop rate splits evenly, so the
  // aggregate arrival process is preserved (a superposition of Poisson
  // processes is Poisson at the summed rate).  Results merge into one
  // LoadResult: counts and rates sum, elapsed is the longest window, and
  // every shard's RTT histogram merges bucket-wise into one HDR histogram
  // (src/obs/histogram.h).
  int shards = 1;
  // Pin shard i to topology pin_order[(pin_offset + i) % n].  Off by
  // default; the load benchmarks turn it on with pin_offset = server
  // shards so generator threads land on cores the server isn't using.
  bool pin_shards = false;
  int pin_offset = 0;
  // Interval telemetry: when > 0 the measured window is cut into
  // `interval`-long sub-windows, each with its own histogram and
  // request/error counters (LoadResult::intervals).  Empty sub-windows are
  // kept so the series stays contiguous and shard series align index-wise.
  Nanos interval = 0;
  // Cap on raw RTT values retained (uniform reservoir, Vitter's algorithm R)
  // for exact-percentile cross-checks against the histogram.  Runs shorter
  // than the cap keep every value, so the reservoir doubles as an exact
  // reference at CI scale.  Sharded runs split the cap across workers.
  std::size_t reservoir_cap = std::size_t{1} << 18;
  // Source tag published with live interval frames, conventionally
  // "<bench>/<scenario>".  Frames are only built when interval > 0 and
  // someone subscribed to obs::IntervalPublisher::global().
  std::string stream_label;
  // Shard ordinal carried into published frames; run_load's fan-out sets it.
  int shard_index = 0;
};

struct LoadResult {
  // Per-request round trip (kEcho/kRpc) or per-block send-completion time
  // (kStream, where backpressure is the latency) in ns, measured-window
  // only — falls back to warmup observations when the window produced none.
  obs::LatencyHistogram rtt_hist;
  // Uniform reservoir of raw RTTs (≤ reservoir_cap of the rtt_seen offered),
  // for exact-percentile cross-checks only; the histogram is authoritative.
  Sample rtt_reservoir;
  std::uint64_t rtt_seen = 0;
  // Interval series (empty unless config.interval > 0); window offsets are
  // relative to the start of the measured phase and requests sum to
  // `requests` exactly.
  std::vector<obs::IntervalStats> intervals;
  std::uint64_t requests = 0;        // completions in the measured window
  std::uint64_t total_requests = 0;  // including warmup
  std::uint64_t errors = 0;          // connections lost mid-run
  std::uint64_t bytes_sent = 0;      // measured window
  std::uint64_t bytes_received = 0;  // measured window
  Nanos elapsed = 0;                 // measured window length
  double ops_per_sec = 0.0;
  double mb_per_sec = 0.0;           // payload sent / elapsed (2^20 MB)
  int connections = 0;               // connections that established
};

// Runs one load scenario to completion (spawning config.shards - 1 worker
// threads when sharded).  Throws std::invalid_argument on a bad config,
// SysError/runtime_error when the target is unreachable or all connections
// die.
LoadResult run_load(const LoadGenConfig& config);

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LOAD_GEN_H_
