#include "src/svc/client.h"

#include <csignal>
#include <stdexcept>

#include "src/svc/wire.h"
#include "src/sys/socket.h"

namespace lmb::svc {

namespace {

std::string op_request(const std::string& op) {
  return "{\"op\":" + report::json_quote(op) + "}";
}

}  // namespace

Client::Client(std::string socket_path, int connect_timeout_ms, int stall_timeout_ms)
    : socket_path_(std::move(socket_path)),
      connect_timeout_ms_(connect_timeout_ms),
      stall_timeout_ms_(stall_timeout_ms) {
  // The daemon can close a connection while we write (e.g. shutdown racing
  // a request); that must surface as SysError(EPIPE), not a signal.
  std::signal(SIGPIPE, SIG_IGN);
}

report::JsonValue Client::roundtrip(const std::string& request) {
  sys::UnixStream stream = sys::UnixStream::connect(socket_path_, connect_timeout_ms_);
  write_frame(stream.fd(), request);
  // First-byte wait is unbounded (runs are long by design); only a
  // mid-frame stall — a daemon that died while answering — is a timeout.
  std::optional<std::string> payload =
      FrameStream(stream.fd(), /*first_byte_timeout_ms=*/-1, stall_timeout_ms_).next();
  if (!payload.has_value()) {
    throw std::runtime_error("lmbenchd closed the connection without answering");
  }
  return parse_message(*payload);
}

report::JsonValue Client::submit(
    const std::map<std::string, std::string>& args,
    const std::function<void(const report::JsonValue&)>& on_event) {
  std::string request = "{\"op\":\"submit\",\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) {
      request += ',';
    }
    first = false;
    request += report::json_quote(key) + ":" + report::json_quote(value);
  }
  request += "}}";

  sys::UnixStream stream = sys::UnixStream::connect(socket_path_, connect_timeout_ms_);
  write_frame(stream.fd(), request);
  FrameStream frames(stream.fd(), /*first_byte_timeout_ms=*/-1, stall_timeout_ms_);
  for (;;) {
    std::optional<std::string> payload = frames.next();
    if (!payload.has_value()) {
      throw std::runtime_error("lmbenchd closed the stream before sending 'done'");
    }
    report::JsonValue message = parse_message(*payload);
    if (on_event) {
      on_event(message);
    }
    const report::JsonObject& obj = message.object();
    if (const report::JsonValue* event = report::find(obj, "event");
        event != nullptr && event->str() == "done") {
      return message;
    }
    if (const report::JsonValue* ok = report::find(obj, "ok");
        ok != nullptr && !ok->boolean()) {
      return message;  // in-band error ends the conversation
    }
  }
}

report::JsonValue Client::status() { return roundtrip(op_request("status")); }

report::JsonValue Client::results() { return roundtrip(op_request("results")); }

report::JsonValue Client::trend(const std::string& host, const std::string& bench,
                                const std::string& metric) {
  std::string request = "{\"op\":\"trend\"";
  if (!host.empty()) {
    request += ",\"host\":" + report::json_quote(host);
  }
  if (!bench.empty()) {
    request += ",\"bench\":" + report::json_quote(bench);
  }
  if (!metric.empty()) {
    request += ",\"metric\":" + report::json_quote(metric);
  }
  request += "}";
  return roundtrip(request);
}

report::JsonValue Client::shutdown() { return roundtrip(op_request("shutdown")); }

int Client::watch(const std::function<void(const report::JsonValue&)>& on_frame,
                  int max_frames) {
  sys::UnixStream stream = sys::UnixStream::connect(socket_path_, connect_timeout_ms_);
  write_frame(stream.fd(), op_request("watch"));
  // Frames arrive whenever a running load benchmark closes an interval
  // window — possibly never, so the first-byte wait stays unbounded and
  // only a mid-frame stall is an error.
  FrameStream frames(stream.fd(), /*first_byte_timeout_ms=*/-1, stall_timeout_ms_);
  int intervals = 0;
  for (;;) {
    std::optional<std::string> payload = frames.next();
    if (!payload.has_value()) {
      return intervals;  // daemon shut down (or dropped us)
    }
    report::JsonValue message = parse_message(*payload);
    if (on_frame) {
      on_frame(message);
    }
    const report::JsonObject& obj = message.object();
    if (const report::JsonValue* ok = report::find(obj, "ok");
        ok != nullptr && !ok->boolean()) {
      return intervals;  // in-band error ends the stream
    }
    if (const report::JsonValue* event = report::find(obj, "event");
        event != nullptr && event->str() == "interval_stats") {
      ++intervals;
      if (max_frames > 0 && intervals >= max_frames) {
        return intervals;
      }
    }
  }
}

}  // namespace lmb::svc
