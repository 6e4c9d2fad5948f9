// The c10k echo/RPC server: N pinned event-loop shards over SO_REUSEPORT,
// level- or edge-triggered epoll, non-blocking everything.
//
// The paper's lat_tcp/bw_tcp servers handle exactly one connection with
// blocking reads; this server multiplexes thousands of connections across
// `shards` event-loop threads so the load benchmarks (src/lat/lat_load.cc)
// can extend §6's single-flow measurements to the multi-tenant regime
// without the measurement harness itself saturating one core first.  Each
// shard owns an SO_REUSEPORT listener on the shared port (the kernel hashes
// connections across shards — no accept lock, no thundering herd), its own
// epoll set, and its own cache-line-isolated counters; shard threads pin
// one-per-physical-core via src/core/topology's pin order.
//
// Two epoll disciplines are selectable per run so their wakeup cost can be
// compared through the metrics pipeline:
//  * kLevel — the PR 8 behavior: the loop is re-notified until a connection
//    is drained, interest masks are switched with epoll_ctl as backpressure
//    comes and goes.
//  * kEdge — EPOLLET with drain-until-EAGAIN state machines: every
//    connection registers EPOLLIN|EPOLLOUT|EPOLLET exactly once (zero
//    epoll_ctl on the hot path), a read deferred by output backpressure is
//    remembered and resumed when the peer drains us, and EPOLLOUT edges
//    re-arm naturally after a short write.
//
// RPC replies avoid the copy into a contiguous out buffer: queued replies
// are (shared header, shared payload) pairs flushed with one writev per
// readiness — syscall count per reply drops with batch size.
#ifndef LMBENCHPP_SRC_LAT_LOAD_SERVER_H_
#define LMBENCHPP_SRC_LAT_LOAD_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sys/epoll_loop.h"
#include "src/sys/socket.h"

namespace lmb::obs {
class TraceSink;
}

namespace lmb::lat {

// What the server does with a connection's bytes.
enum class ServerProtocol {
  kEcho,  // write every byte read straight back (lat_tcp_n)
  kRpc,   // length-prefixed requests; fixed-size length-prefixed replies,
          // with optional per-request CPU work (lat_rpc_n)
  kSink,  // read and discard — the fan-in bandwidth target (bw_tcp_n)
};

// Readiness discipline for every shard's epoll set.
enum class EpollMode {
  kLevel,  // re-notified until drained; interest switched via epoll_ctl
  kEdge,   // EPOLLET: drain until EAGAIN, deferred drains remembered
};

struct LoadServerConfig {
  ServerProtocol protocol = ServerProtocol::kEcho;
  // kRpc: reply payload size (the frame adds a 4-byte big-endian length,
  // same framing as src/svc/wire.h).
  std::uint32_t reply_bytes = 64;
  // kRpc: per-request server-side work, iterations of a checksum spin —
  // models the "simple arithmetic" an RPC server does (§6.7) so the single
  // server CPU becomes the shared bottleneck that shapes the tail.
  std::uint64_t work_iters = 0;
  // listen(2) backlog per shard listener; a 1000-connection ramp needs
  // headroom here.
  int backlog = 4096;
  // Per-read scratch size.
  std::uint32_t io_buf_bytes = 64u << 10;
  // Event-loop shards, each a pinned thread with its own SO_REUSEPORT
  // listener, epoll set, and counters.  1 reproduces the PR 8 single-loop
  // server exactly.
  int shards = 1;
  EpollMode epoll_mode = EpollMode::kLevel;
  // Pin shard i to topology pin_order[i] (one per physical core,
  // round-robin across sockets).  Best-effort; failures leave the shard
  // unpinned.
  bool pin_shards = true;
};

// Monotonic counters.  This is a *snapshot by value*: stats() and
// shard_stats() assemble it from per-shard cache-line-isolated atomics
// (relaxed loads of independently monotonic counters), so it is safe to
// call from any thread while the server runs — each field is torn-free and
// never goes backwards, though fields snapshot at slightly different
// instants may be mutually off by in-flight requests.
struct LoadServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t open = 0;           // currently open connections
  std::uint64_t requests = 0;       // kRpc: complete frames served
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t wakeups = 0;        // epoll_wait returns (all shards)
  // Summed CPU time of the loop threads: read from a running loop's thread
  // clock, stored by the loop when it exits.  May step back by the few ns
  // between a loop's last clock read and its exit.
  std::int64_t loop_cpu_ns = 0;
};

// Starts `shards` event loops on background threads at construction;
// stop() (or the destructor) wakes each via self-pipe and joins.  Every
// listener binds 127.0.0.1 on one shared ephemeral port.
class LoadServer {
 public:
  explicit LoadServer(LoadServerConfig config = {});
  ~LoadServer();

  LoadServer(const LoadServer&) = delete;
  LoadServer& operator=(const LoadServer&) = delete;

  std::uint16_t port() const { return port_; }

  int shards() const { return static_cast<int>(shards_.size()); }

  // Aggregate across all shards.
  LoadServerStats stats() const;

  // One shard's counters; `shard` in [0, shards()).
  LoadServerStats shard_stats(int shard) const;

  // CPU shard `shard` pinned to, or -1 when unpinned.
  int shard_cpu(int shard) const;

  // Idempotent; after return every loop thread has exited and all
  // connections are closed.  Emits one "load"/"shard" trace event per
  // shard (wakeups, pinned cpu, loop CPU time) when the constructing
  // thread had an ObsScope with a sink installed.
  void stop();

 private:
  struct Conn;
  struct Shard;

  void loop(Shard& shard);
  // Returns false when the connection was closed and destroyed.
  bool handle_conn(Shard& shard, Conn& conn, std::uint32_t events);
  void process_input(Shard& shard, Conn& conn, const char* data, size_t len);
  bool flush(Shard& shard, Conn& conn);  // false: would block
  void close_conn(Shard& shard, Conn& conn);
  void update_interest(Shard& shard, Conn& conn);

  LoadServerConfig config_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  // kRpc: the constant 4-byte big-endian reply header and the 16 possible
  // reply payloads ('r' xor the low checksum nibble), shared read-only by
  // every shard so a queued reply is two pointers, not a buffer copy.
  std::array<char, 4> rpc_header_{};
  std::array<std::string, 16> rpc_payloads_;

  std::vector<std::unique_ptr<Shard>> shards_;

  obs::TraceSink* trace_sink_ = nullptr;  // sink of the constructing scope
  bool trace_emitted_ = false;
};

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LOAD_SERVER_H_
