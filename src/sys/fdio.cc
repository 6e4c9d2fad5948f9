#include "src/sys/fdio.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

#include <cerrno>
#include <stdexcept>

#include "src/sys/error.h"

namespace lmb::sys {

void write_full(int fd, const void* buf, size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("write");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

void read_full(int fd, void* buf, size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = ::read(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("read");
    }
    if (n == 0) {
      throw std::runtime_error("read_full: unexpected EOF");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
}

size_t read_some(int fd, void* buf, size_t len) {
  while (true) {
    ssize_t n = ::read(fd, buf, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("read");
    }
    return static_cast<size_t>(n);
  }
}

IoOutcome read_nonblock(int fd, void* buf, size_t len) {
  while (true) {
    ssize_t n = ::read(fd, buf, len);
    if (n > 0) {
      return {static_cast<size_t>(n), false, false};
    }
    if (n == 0) {
      return {0, false, true};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {0, true, false};
    }
    if (errno == ECONNRESET) {
      return {0, false, true};
    }
    throw_errno("read");
  }
}

IoOutcome write_nonblock(int fd, const void* buf, size_t len) {
  while (true) {
    ssize_t n = ::write(fd, buf, len);
    if (n >= 0) {
      return {static_cast<size_t>(n), false, false};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {0, true, false};
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return {0, false, true};
    }
    throw_errno("write");
  }
}

IoOutcome writev_nonblock(int fd, const ::iovec* iov, int iovcnt) {
  while (true) {
    ssize_t n = ::writev(fd, iov, iovcnt);
    if (n >= 0) {
      return {static_cast<size_t>(n), false, false};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {0, true, false};
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return {0, false, true};
    }
    throw_errno("writev");
  }
}

namespace {

std::int64_t monotonic_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1'000'000;
}

}  // namespace

bool poll_readable(int fd, int timeout_ms) {
  const std::int64_t deadline = timeout_ms > 0 ? monotonic_ms() + timeout_ms : 0;
  int remaining = timeout_ms;
  while (true) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, remaining);
    if (ready > 0) {
      return true;  // readable, hung up, or errored — a read will tell which
    }
    if (ready == 0) {
      return false;
    }
    if (errno != EINTR) {
      throw_errno("poll");
    }
    if (timeout_ms > 0) {
      remaining = static_cast<int>(std::max<std::int64_t>(0, deadline - monotonic_ms()));
    }
  }
}

UniqueFd open_read(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw_errno("open " + path);
  }
  return UniqueFd(fd);
}

UniqueFd open_write(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw_errno("open " + path);
  }
  return UniqueFd(fd);
}

UniqueFd open_rw_create(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    throw_errno("open " + path);
  }
  return UniqueFd(fd);
}

void write_file(const std::string& path, const std::string& content) {
  UniqueFd fd = open_write(path);
  write_full(fd.get(), content.data(), content.size());
}

void append_line(const std::string& path, const std::string& line) {
  UniqueFd fd(::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644));
  if (fd.get() < 0) {
    throw_errno("open " + path);
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    throw_errno("fstat " + path);
  }
  char last = '\n';
  if (st.st_size > 0 && ::pread(fd.get(), &last, 1, st.st_size - 1) != 1) {
    throw_errno("pread " + path);
  }
  const std::string content = last == '\n' ? line : "\n" + line;
  write_full(fd.get(), content.data(), content.size());
}

std::string read_file(const std::string& path) {
  UniqueFd fd = open_read(path);
  std::string out;
  char buf[65536];
  while (true) {
    size_t n = read_some(fd.get(), buf, sizeof(buf));
    if (n == 0) {
      break;
    }
    out.append(buf, n);
  }
  return out;
}

}  // namespace lmb::sys
