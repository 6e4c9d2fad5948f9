#include "src/svc/wire.h"

#include <cerrno>
#include <stdexcept>

#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace lmb::svc {

namespace {

// read_some with a deadline: waits for readability (EINTR-safe), then reads.
// Throws SysError(ETIMEDOUT) with `what` when nothing arrives in time.
size_t read_some_within(int fd, void* buf, size_t len, int timeout_ms, const char* what) {
  if (!sys::poll_readable(fd, timeout_ms)) {
    throw sys::SysError(what, ETIMEDOUT);
  }
  return sys::read_some(fd, buf, len);
}

// The payload length a 4-byte prefix announces; throws on an oversized one.
std::uint32_t decode_length(const unsigned char* prefix) {
  const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                            (static_cast<std::uint32_t>(prefix[1]) << 16) |
                            (static_cast<std::uint32_t>(prefix[2]) << 8) |
                            static_cast<std::uint32_t>(prefix[3]);
  if (len > kMaxFrameBytes) {
    throw std::runtime_error("wire: oversized frame: " + std::to_string(len) + " bytes");
  }
  return len;
}

constexpr const char* kTornPrefix = "wire: EOF inside frame length";
constexpr const char* kTornPayload = "wire: EOF inside frame payload";

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::invalid_argument("wire: frame too large: " + std::to_string(payload.size()));
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const char prefix[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                          static_cast<char>(len >> 8), static_cast<char>(len)};
  std::string buf;
  buf.reserve(sizeof(prefix) + payload.size());
  buf.append(prefix, sizeof(prefix));
  buf.append(payload);
  return buf;
}

void write_frame(int fd, const std::string& payload) {
  // One buffer, one write: a frame either lands whole or the connection is
  // torn — readers never see a prefix without its payload from our side.
  const std::string buf = encode_frame(payload);
  sys::write_full(fd, buf.data(), buf.size());
}

std::optional<std::string> read_frame(int fd) { return read_frame_bounded(fd, -1, -1); }

std::optional<std::string> read_frame_bounded(int fd, int first_byte_timeout_ms,
                                              int stall_timeout_ms) {
  unsigned char prefix[4];
  size_t got = 0;
  while (got < sizeof(prefix)) {
    const int timeout = got == 0 ? first_byte_timeout_ms : stall_timeout_ms;
    const char* what = got == 0 ? "wire: timed out waiting for a frame"
                                : "wire: peer stalled mid-frame (torn length prefix)";
    size_t n = read_some_within(fd, prefix + got, sizeof(prefix) - got, timeout, what);
    if (n == 0) {
      if (got == 0) {
        return std::nullopt;  // clean EOF between frames
      }
      throw std::runtime_error(kTornPrefix);
    }
    got += n;
  }
  const std::uint32_t len = decode_length(prefix);
  std::string payload(len, '\0');
  size_t have = 0;
  while (have < len) {
    size_t n = read_some_within(fd, payload.data() + have, len - have, stall_timeout_ms,
                                "wire: peer stalled mid-frame (incomplete payload)");
    if (n == 0) {
      throw std::runtime_error(kTornPayload);
    }
    have += n;
  }
  return payload;
}

void FrameReader::feed(const void* data, std::size_t len) {
  if (pos_ == buf_.size()) {
    buf_.clear();  // everything consumed: restart at the front
    pos_ = 0;
  }
  buf_.append(static_cast<const char*>(data), len);
}

std::optional<std::string> FrameReader::next() {
  if (buf_.size() - pos_ < 4) {
    return std::nullopt;
  }
  const std::uint32_t len =
      decode_length(reinterpret_cast<const unsigned char*>(buf_.data() + pos_));
  if (buf_.size() - pos_ - 4 < len) {
    return std::nullopt;
  }
  std::string frame = buf_.substr(pos_ + 4, len);
  pos_ += 4 + len;
  if (pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);  // compact once the consumed part dominates
    pos_ = 0;
  }
  return frame;
}

void FrameReader::at_eof() const {
  const std::size_t left = buf_.size() - pos_;
  if (left == 0) {
    return;
  }
  if (left < 4) {
    throw std::runtime_error(kTornPrefix);
  }
  decode_length(reinterpret_cast<const unsigned char*>(buf_.data() + pos_));
  throw std::runtime_error(kTornPayload);
}

report::JsonValue parse_message(const std::string& payload) {
  report::JsonValue v = report::parse_json(payload);
  v.object();  // type check: every protocol message is an object
  return v;
}

std::string error_message(const std::string& message) {
  return "{\"ok\":false,\"error\":" + report::json_quote(message) + "}";
}

}  // namespace lmb::svc
