#include "src/lat/lat_ipc.h"

#include <unistd.h>

#include <stdexcept>
#include <vector>

#include "src/core/registry.h"
#include "src/report/table.h"
#include "src/sys/fdio.h"
#include "src/sys/pipe.h"
#include "src/sys/process.h"
#include "src/sys/socket.h"

namespace lmb::lat {

namespace {

void validate(const IpcLatConfig& config) {
  if (config.message_bytes == 0 || config.message_bytes > 65000) {
    throw std::invalid_argument("IpcLatConfig: message size out of range");
  }
}

// Echo loop over stream fds: read exactly `len`, write it back; exit on EOF.
int stream_echo_child(int in_fd, int out_fd, size_t len) {
  std::vector<char> buf(len);
  while (true) {
    size_t got = 0;
    while (got < len) {
      size_t n = sys::read_some(in_fd, buf.data() + got, len - got);
      if (n == 0) {
        return got == 0 ? 0 : 1;  // clean EOF only between messages
      }
      got += n;
    }
    sys::write_full(out_fd, buf.data(), len);
  }
}

// Parent-side round-trip body over stream fds.
Measurement time_stream_roundtrips(int out_fd, int in_fd, const IpcLatConfig& config) {
  std::vector<char> buf(config.message_bytes, 'p');
  return measure(
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          sys::write_full(out_fd, buf.data(), buf.size());
          sys::read_full(in_fd, buf.data(), buf.size());
        }
      },
      config.policy);
}

}  // namespace

Measurement measure_pipe_latency(const IpcLatConfig& config) {
  validate(config);
  sys::Pipe to_child;
  sys::Pipe to_parent;
  sys::Child child = sys::fork_child([&]() {
    to_child.close_write();
    to_parent.close_read();
    return stream_echo_child(to_child.read_fd(), to_parent.write_fd(), config.message_bytes);
  });
  to_child.close_read();
  to_parent.close_write();

  Measurement m = time_stream_roundtrips(to_child.write_fd(), to_parent.read_fd(), config);
  to_child.close_write();  // EOF stops the child
  if (child.wait() != 0) {
    throw std::runtime_error("pipe latency echo child failed");
  }
  return m;
}

Measurement measure_unix_latency(const IpcLatConfig& config) {
  validate(config);
  sys::SocketPair pair;
  sys::Child child = sys::fork_child([&]() {
    pair.close_first();
    return stream_echo_child(pair.second(), pair.second(), config.message_bytes);
  });
  pair.close_second();

  Measurement m = time_stream_roundtrips(pair.first(), pair.first(), config);
  pair.close_first();
  if (child.wait() != 0) {
    throw std::runtime_error("unix latency echo child failed");
  }
  return m;
}

Measurement measure_tcp_latency(const IpcLatConfig& config) {
  validate(config);
  sys::TcpListener listener;
  sys::Child child = sys::fork_child([&]() {
    sys::TcpStream conn = listener.accept();
    conn.set_nodelay(true);
    return stream_echo_child(conn.fd(), conn.fd(), config.message_bytes);
  });
  sys::TcpStream conn = sys::TcpStream::connect(listener.port());
  conn.set_nodelay(true);

  Measurement m = time_stream_roundtrips(conn.fd(), conn.fd(), config);
  conn.shutdown_write();
  if (child.wait() != 0) {
    throw std::runtime_error("tcp latency echo child failed");
  }
  return m;
}

Measurement measure_udp_latency(const IpcLatConfig& config) {
  validate(config);
  if (config.message_bytes < 2) {
    throw std::invalid_argument("udp latency needs messages >= 2 bytes (1 byte = terminator)");
  }
  sys::UdpSocket server;  // created pre-fork so the port is known to both
  std::uint16_t server_port = server.port();

  sys::Child child = sys::fork_child([&]() {
    std::vector<char> buf(65536);
    while (true) {
      std::uint16_t from = 0;
      size_t n = server.recv_from(buf.data(), buf.size(), &from);
      if (n <= 1) {
        return 0;  // 1-byte terminator
      }
      server.send_to(from, buf.data(), n);
    }
  });

  sys::UdpSocket client;
  client.connect_to(server_port);
  std::vector<char> buf(config.message_bytes, 'u');
  Measurement m = measure(
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          client.send(buf.data(), buf.size());
          size_t n = client.recv(buf.data(), buf.size());
          if (n != buf.size()) {
            throw std::runtime_error("udp latency: short echo");
          }
        }
      },
      config.policy);

  char stop = 'q';
  client.send(&stop, 1);
  if (child.wait() != 0) {
    throw std::runtime_error("udp latency echo child failed");
  }
  return m;
}

Measurement measure_tcp_connect(const ConnectConfig& config) {
  if (config.connects < 1) {
    throw std::invalid_argument("ConnectConfig: connects must be >= 1");
  }
  // A connect that finds the accept queue full has its SYN dropped and
  // waits out the 1 s retransmit timer.  The queue holds every connect of
  // the run (listen(2) caps it at net.core.somaxconn), and no connect is
  // timed before the acceptor has started.
  sys::TcpListener listener(config.connects);
  int total = config.connects;
  sys::Pipe ready;
  sys::Child child = sys::fork_child([&]() {
    ready.close_read();
    const char go = 'r';
    sys::write_full(ready.write_fd(), &go, 1);
    for (int i = 0; i < total; ++i) {
      sys::TcpStream conn = listener.accept();
      // Closed immediately by scope exit.
    }
    return 0;
  });
  ready.close_write();
  char go = 0;
  sys::read_full(ready.read_fd(), &go, 1);

  std::uint16_t port = listener.port();
  Measurement m = measure_once_each(
      [&]() {
        sys::TcpStream conn = sys::TcpStream::connect(port);
        // connect + close is the measured unit (§6.7: "The socket is closed
        // after each connect").
      },
      total);
  if (child.wait() != 0) {
    throw std::runtime_error("tcp connect acceptor failed");
  }
  return m;
}

namespace {

IpcLatConfig ipc_config_from(const Options& opts) {
  IpcLatConfig cfg = opts.quick() ? IpcLatConfig::quick() : IpcLatConfig{};
  cfg.message_bytes = static_cast<size_t>(
      opts.get_size("msg", static_cast<std::int64_t>(cfg.message_bytes)));
  return cfg;
}

RunResult us_result(const Measurement& m) {
  RunResult r = RunResult{}.with(m).add("us", m.us_per_op(), "us");
  r.display = report::format_number(m.us_per_op(), 1) + " us round trip";
  return r;
}

const BenchmarkRegistrar pipe_registrar{{
    .name = "lat_pipe",
    .category = "latency",
    .description = "pipe round-trip latency (Table 11)",
    .run = [](const Options& opts) { return us_result(measure_pipe_latency(ipc_config_from(opts))); },
}};

const BenchmarkRegistrar unix_registrar{{
    .name = "lat_unix",
    .category = "latency",
    .description = "AF_UNIX round-trip latency",
    .run = [](const Options& opts) { return us_result(measure_unix_latency(ipc_config_from(opts))); },
}};

const BenchmarkRegistrar tcp_registrar{{
    .name = "lat_tcp",
    .category = "latency",
    .description = "loopback TCP round-trip latency (Table 12)",
    .run = [](const Options& opts) { return us_result(measure_tcp_latency(ipc_config_from(opts))); },
}};

const BenchmarkRegistrar udp_registrar{{
    .name = "lat_udp",
    .category = "latency",
    .description = "loopback UDP round-trip latency (Table 13)",
    .run = [](const Options& opts) { return us_result(measure_udp_latency(ipc_config_from(opts))); },
}};

const BenchmarkRegistrar connect_registrar{{
    .name = "lat_connect",
    .category = "latency",
    .description = "TCP connection establishment (Table 15)",
    .run =
        [](const Options& opts) {
          ConnectConfig cfg;
          cfg.connects = static_cast<int>(opts.get_int("n", cfg.connects));
          Measurement m = measure_tcp_connect(cfg);
          return RunResult{}.with(m).add("us", m.us_per_op(), "us");
        },
}};

}  // namespace

}  // namespace lmb::lat
