#include "src/lat/load_server.h"

#include <pthread.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/topology.h"
#include "src/obs/trace.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace lmb::lat {

namespace {

// Tags 0/1 are the loop's own fds; connections start above them.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnTag = 2;

// Echo backpressure: stop reading a connection whose pending output exceeds
// this; resume once the peer drains us.  Without it a fast sender that
// never reads would grow the out buffer without bound.
constexpr size_t kOutHighWater = 1u << 20;

// Max queued RPC replies gathered into one writev call.  Linux IOV_MAX is
// 1024; each reply contributes two iovecs (header + payload).
constexpr int kMaxReplyIov = 64;

std::int64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint32_t read_be32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<std::uint32_t>(b[0]) << 24) | (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) | static_cast<std::uint32_t>(b[3]);
}

}  // namespace

struct LoadServer::Conn {
  sys::UniqueFd fd;
  std::uint64_t tag = 0;
  std::string in;        // kRpc: bytes of a not-yet-complete frame
  std::string out;       // pending output (kEcho)
  size_t out_off = 0;    // bytes of `out` already written
  // kRpc: queued replies as pointers into the server's shared payload
  // table; each reply is the shared 4-byte header plus one payload.
  std::deque<const char*> replies;
  size_t reply_off = 0;  // bytes of the front reply already written
  bool peer_closed = false;
  // kEdge only: a read pass was cut short by output backpressure, not
  // EAGAIN — bytes may still sit in the kernel buffer with no further edge
  // coming, so the drain must resume once the peer unblocks us.
  bool read_ready = false;
  std::uint32_t interest = 0;  // currently registered epoll events

  size_t pending_out(std::uint32_t reply_total) const {
    return (out.size() - out_off) + replies.size() * reply_total - reply_off;
  }
};

// Everything one event-loop thread owns: its SO_REUSEPORT listener, epoll
// set, wake pipe, scratch buffer, and counters.  Counters live on their own
// cache lines per shard so two shards bumping bytes_in never false-share.
struct LoadServer::Shard {
  explicit Shard(sys::TcpListener l) : listener(std::move(l)) {}

  sys::TcpListener listener;
  sys::Epoll epoll;
  sys::WakePipe wake;
  std::vector<char> scratch;  // loop-thread-only read buffer
  int index = 0;
  int pinned_cpu = -1;
  // The loop thread's CPU clock, readable from other threads while `live`.
  // The loop sets `live` once `cpu_clock` is stored and clears it after
  // storing its final counters.loop_cpu_ns.
  clockid_t cpu_clock{};
  std::atomic<bool> live{false};
  std::thread thread;

  struct alignas(64) Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> open{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::int64_t> loop_cpu_ns{0};
  } counters;
};

LoadServer::LoadServer(LoadServerConfig config) : config_(config) {
  if (config_.shards < 1) {
    config_.shards = 1;
  }
  rpc_header_[0] = static_cast<char>(config_.reply_bytes >> 24);
  rpc_header_[1] = static_cast<char>(config_.reply_bytes >> 16);
  rpc_header_[2] = static_cast<char>(config_.reply_bytes >> 8);
  rpc_header_[3] = static_cast<char>(config_.reply_bytes);
  for (int v = 0; v < 16; ++v) {
    rpc_payloads_[static_cast<size_t>(v)].assign(config_.reply_bytes,
                                                 static_cast<char>('r' ^ v));
  }
  if (obs::ObsScope* scope = obs::ObsScope::current()) {
    trace_sink_ = scope->sink();
  }

  // One listener per shard, all on one port: the first binds ephemeral,
  // the rest join it.  SO_REUSEPORT even for a single shard keeps the two
  // configurations byte-for-byte identical apart from thread count.
  const CpuTopology topo = query_topology();
  const std::vector<int> pin_order = topo.pin_order();
  for (int i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(sys::TcpListener::with_reuseport(port_, config_.backlog));
    if (i == 0) {
      port_ = shard->listener.port();
    }
    shard->index = i;
    sys::set_nonblocking(shard->listener.fd());
    shard->epoll.add(shard->listener.fd(), EPOLLIN, kListenerTag);
    shard->epoll.add(shard->wake.read_fd(), EPOLLIN, kWakeTag);
    shards_.push_back(std::move(shard));
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* s = shard.get();
    const int cpu = (config_.pin_shards && !pin_order.empty())
                        ? pin_order[static_cast<size_t>(s->index) % pin_order.size()]
                        : -1;
    s->thread = std::thread([this, s, cpu] {
      if (cpu >= 0 && pin_current_thread(cpu)) {
        s->pinned_cpu = cpu;
      }
      loop(*s);
    });
  }
}

LoadServer::~LoadServer() { stop(); }

void LoadServer::stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    for (std::unique_ptr<Shard>& shard : shards_) {
      shard->wake.notify();
    }
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  if (trace_sink_ != nullptr && !trace_emitted_) {
    trace_emitted_ = true;
    obs::TraceSink* sink = trace_sink_;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      const Shard::Counters& c = shard->counters;
      sink->instant(
          "load", "shard",
          {{"shard", std::to_string(shard->index)},
           {"cpu", std::to_string(shard->pinned_cpu)},
           {"epoll", config_.epoll_mode == EpollMode::kEdge ? "et" : "lt"},
           {"accepted", std::to_string(c.accepted.load(std::memory_order_relaxed))},
           {"requests", std::to_string(c.requests.load(std::memory_order_relaxed))},
           {"wakeups", std::to_string(c.wakeups.load(std::memory_order_relaxed))},
           {"loop_cpu_ns", std::to_string(c.loop_cpu_ns.load(std::memory_order_relaxed))}});
    }
  }
}

LoadServerStats LoadServer::shard_stats(int shard) const {
  const Shard& sh = *shards_[static_cast<size_t>(shard)];
  const Shard::Counters& c = sh.counters;
  LoadServerStats s;
  s.accepted = c.accepted.load(std::memory_order_relaxed);
  s.closed = c.closed.load(std::memory_order_relaxed);
  s.open = c.open.load(std::memory_order_relaxed);
  s.requests = c.requests.load(std::memory_order_relaxed);
  s.bytes_in = c.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = c.bytes_out.load(std::memory_order_relaxed);
  s.wakeups = c.wakeups.load(std::memory_order_relaxed);
  // A live reading counts only if the loop is still live after it: until
  // then the thread had not exited, so its tid could not yet belong to
  // another thread.  Otherwise the loop's stored final value is used.
  const bool live = sh.live.load(std::memory_order_acquire);
  const std::int64_t live_ns = live ? cpu_clock_ns(sh.cpu_clock) : 0;
  s.loop_cpu_ns = live && sh.live.load(std::memory_order_acquire)
                      ? live_ns
                      : c.loop_cpu_ns.load(std::memory_order_relaxed);
  return s;
}

LoadServerStats LoadServer::stats() const {
  LoadServerStats total;
  for (int i = 0; i < shards(); ++i) {
    const LoadServerStats s = shard_stats(i);
    total.accepted += s.accepted;
    total.closed += s.closed;
    total.open += s.open;
    total.requests += s.requests;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.wakeups += s.wakeups;
    total.loop_cpu_ns += s.loop_cpu_ns;
  }
  return total;
}

int LoadServer::shard_cpu(int shard) const {
  return shards_[static_cast<size_t>(shard)]->pinned_cpu;
}

void LoadServer::loop(Shard& shard) {
  // Loop-thread-only connection table; local so the header needs no
  // container of the private Conn type.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_tag = kFirstConnTag;
  std::vector<epoll_event> events;
  if (::pthread_getcpuclockid(::pthread_self(), &shard.cpu_clock) == 0) {
    shard.live.store(true, std::memory_order_release);
  }

  auto accept_all = [&] {
    while (true) {
      int fd = ::accept4(shard.listener.fd(), nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        if (errno == ECONNABORTED) {
          continue;  // peer gave up while queued; not our problem
        }
        sys::throw_errno("accept4");
      }
      auto conn = std::make_unique<Conn>();
      conn->fd.reset(fd);
      conn->tag = next_tag++;
      if (config_.protocol != ServerProtocol::kSink) {
        sys::set_tcp_nodelay(fd);
      }
      if (config_.epoll_mode == EpollMode::kEdge) {
        // Register the full mask once; EPOLLET reports transitions only,
        // so a connection that stays readable or writable costs no further
        // epoll_ctl — the hot path makes zero interest-switching syscalls.
        conn->interest = EPOLLIN | EPOLLOUT | EPOLLET;
      } else {
        conn->interest = EPOLLIN;
      }
      shard.epoll.add(fd, conn->interest, conn->tag);
      shard.counters.accepted.fetch_add(1, std::memory_order_relaxed);
      shard.counters.open.fetch_add(1, std::memory_order_relaxed);
      conns.emplace(conn->tag, std::move(conn));
    }
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    // Block indefinitely: every state change arrives as an fd event (new
    // connection, readable/writable conn, wake pipe).  No timeout means an
    // idle shard performs zero syscalls — the no-busy-spin guarantee.
    int n = shard.epoll.wait(events, /*timeout_ms=*/-1);
    shard.counters.wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<size_t>(i)];
      if (ev.data.u64 == kListenerTag) {
        accept_all();
        continue;
      }
      if (ev.data.u64 == kWakeTag) {
        shard.wake.drain();
        continue;
      }
      auto it = conns.find(ev.data.u64);
      if (it == conns.end()) {
        continue;  // closed earlier in this same batch
      }
      bool alive;
      try {
        alive = handle_conn(shard, *it->second, ev.events);
      } catch (const sys::SysError&) {
        alive = false;  // per-connection failure never fells the server
      }
      if (!alive) {
        close_conn(shard, *it->second);
        conns.erase(it);
      }
    }
  }
  shard.counters.loop_cpu_ns.store(cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID),
                                   std::memory_order_relaxed);
  shard.live.store(false, std::memory_order_release);
}

bool LoadServer::handle_conn(Shard& shard, Conn& conn, std::uint32_t events) {
  const std::uint32_t reply_total = 4 + config_.reply_bytes;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    return false;
  }
  if ((events & EPOLLOUT) != 0) {
    flush(shard, conn);
  }
  bool want_read = (events & EPOLLIN) != 0 || conn.read_ready;
  conn.read_ready = false;
  while (want_read) {
    if (shard.scratch.size() < config_.io_buf_bytes) {
      shard.scratch.resize(config_.io_buf_bytes);
    }
    // Drain until EAGAIN, EOF, or output backpressure.  Level-triggered
    // epoll also stops at a short read, which left the kernel buffer empty:
    // whatever arrives after it, a FIN included, is reported again, so the
    // read that would only return EAGAIN is skipped.  Under EPOLLET data and
    // FIN can share one edge, so the drain must go on to EAGAIN.
    bool drained = false;
    while (conn.pending_out(reply_total) < kOutHighWater) {
      sys::IoOutcome r =
          sys::read_nonblock(conn.fd.get(), shard.scratch.data(), shard.scratch.size());
      if (r.bytes > 0) {
        shard.counters.bytes_in.fetch_add(r.bytes, std::memory_order_relaxed);
        process_input(shard, conn, shard.scratch.data(), r.bytes);
        if (r.bytes < shard.scratch.size() && config_.epoll_mode == EpollMode::kLevel) {
          drained = true;
          break;
        }
        continue;
      }
      if (r.closed) {
        conn.peer_closed = true;
      }
      drained = true;  // would_block or EOF: the kernel buffer is empty
      break;
    }
    flush(shard, conn);
    if (drained || conn.peer_closed) {
      break;
    }
    if (conn.pending_out(reply_total) >= kOutHighWater) {
      // Stopped on backpressure with bytes possibly still queued in the
      // kernel.  Level-triggered epoll re-notifies on its own; under
      // EPOLLET no further edge is guaranteed, so remember to resume the
      // drain from the next EPOLLOUT-driven flush.
      conn.read_ready = config_.epoll_mode == EpollMode::kEdge;
      break;
    }
    // flush() freed space below the high water: keep draining now rather
    // than paying another wakeup.
  }
  if (conn.peer_closed && conn.pending_out(reply_total) == 0) {
    return false;  // everything echoed; orderly close
  }
  update_interest(shard, conn);
  return true;
}

void LoadServer::process_input(Shard& shard, Conn& conn, const char* data, size_t len) {
  switch (config_.protocol) {
    case ServerProtocol::kEcho:
      conn.out.append(data, len);
      break;
    case ServerProtocol::kSink:
      break;  // counted by the caller; bytes are the whole message
    case ServerProtocol::kRpc: {
      conn.in.append(data, len);
      size_t pos = 0;
      while (conn.in.size() - pos >= 4) {
        std::uint32_t frame = read_be32(conn.in.data() + pos);
        if (conn.in.size() - pos - 4 < frame) {
          break;  // partial frame; wait for more bytes
        }
        // Per-request server work: a checksum spin over the request plus
        // `work_iters` extra rounds.  The result selects the reply payload
        // so the optimizer cannot delete the loop.
        std::uint64_t acc = 0;
        for (size_t i = 0; i < frame; ++i) {
          acc = acc * 131 + static_cast<unsigned char>(conn.in[pos + 4 + i]);
        }
        for (std::uint64_t i = 0; i < config_.work_iters; ++i) {
          acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        }
        // No copy: the queued reply is a pointer into the shared payload
        // table; flush() gathers header + payload with writev.
        conn.replies.push_back(rpc_payloads_[acc & 0xf].data());
        shard.counters.requests.fetch_add(1, std::memory_order_relaxed);
        pos += 4 + frame;
      }
      conn.in.erase(0, pos);
      break;
    }
  }
}

bool LoadServer::flush(Shard& shard, Conn& conn) {
  // Echo/contiguous path.
  while (conn.out_off < conn.out.size()) {
    sys::IoOutcome w = sys::write_nonblock(conn.fd.get(), conn.out.data() + conn.out_off,
                                           conn.out.size() - conn.out_off);
    if (w.bytes > 0) {
      shard.counters.bytes_out.fetch_add(w.bytes, std::memory_order_relaxed);
      conn.out_off += w.bytes;
      continue;
    }
    if (w.closed) {
      conn.peer_closed = true;
      conn.out.clear();
      conn.out_off = 0;
      conn.replies.clear();
      conn.reply_off = 0;
      return true;
    }
    return false;  // would block
  }
  if (conn.out_off > 0) {
    conn.out.clear();
    conn.out_off = 0;
  }
  // RPC reply path: coalesce queued replies into one writev — header and
  // payload go straight from the shared tables, nothing is copied into a
  // contiguous buffer first.
  const size_t reply_total = 4 + config_.reply_bytes;
  while (!conn.replies.empty()) {
    iovec iov[2 * kMaxReplyIov];
    int iovcnt = 0;
    size_t first_skip = conn.reply_off;
    const int batch = static_cast<int>(
        std::min<size_t>(conn.replies.size(), static_cast<size_t>(kMaxReplyIov)));
    for (int i = 0; i < batch; ++i) {
      const char* payload = conn.replies[static_cast<size_t>(i)];
      size_t hdr_skip = std::min<size_t>(first_skip, 4);
      size_t pay_skip = first_skip - hdr_skip;
      first_skip = 0;  // only the front reply is partially written
      if (hdr_skip < 4) {
        iov[iovcnt].iov_base = const_cast<char*>(rpc_header_.data()) + hdr_skip;
        iov[iovcnt].iov_len = 4 - hdr_skip;
        ++iovcnt;
      }
      if (pay_skip < config_.reply_bytes) {
        iov[iovcnt].iov_base = const_cast<char*>(payload) + pay_skip;
        iov[iovcnt].iov_len = config_.reply_bytes - pay_skip;
        ++iovcnt;
      }
    }
    if (iovcnt == 0) {
      // Degenerate reply_bytes == 0 with the header already written.
      conn.replies.pop_front();
      conn.reply_off = 0;
      continue;
    }
    sys::IoOutcome w = sys::writev_nonblock(conn.fd.get(), iov, iovcnt);
    if (w.bytes > 0) {
      shard.counters.bytes_out.fetch_add(w.bytes, std::memory_order_relaxed);
      size_t written = conn.reply_off + w.bytes;
      while (written >= reply_total && !conn.replies.empty()) {
        conn.replies.pop_front();
        written -= reply_total;
      }
      conn.reply_off = written;
      continue;
    }
    if (w.closed) {
      conn.peer_closed = true;
      conn.replies.clear();
      conn.reply_off = 0;
      return true;
    }
    return false;  // would block
  }
  return true;
}

void LoadServer::update_interest(Shard& shard, Conn& conn) {
  if (config_.epoll_mode == EpollMode::kEdge) {
    return;  // fixed EPOLLIN|EPOLLOUT|EPOLLET mask; edges re-arm themselves
  }
  const std::uint32_t reply_total = 4 + config_.reply_bytes;
  std::uint32_t wanted = 0;
  if (conn.pending_out(reply_total) < kOutHighWater && !conn.peer_closed) {
    wanted |= EPOLLIN;
  }
  if (conn.pending_out(reply_total) > 0) {
    wanted |= EPOLLOUT;
  }
  if (wanted == 0) {
    wanted = EPOLLIN;  // never deaf: at minimum notice the peer closing
  }
  if (wanted != conn.interest) {
    shard.epoll.mod(conn.fd.get(), wanted, conn.tag);
    conn.interest = wanted;
  }
}

void LoadServer::close_conn(Shard& shard, Conn& conn) {
  shard.epoll.del(conn.fd.get());
  conn.fd.reset();
  shard.counters.closed.fetch_add(1, std::memory_order_relaxed);
  shard.counters.open.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace lmb::lat
