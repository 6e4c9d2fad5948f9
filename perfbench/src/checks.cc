#include "perfbench/src/checks.h"

#include <cmath>
#include <exception>

#include "src/report/serialize.h"

namespace perfbench {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::vector<std::string> check_load(const LoadFacts& f) {
  std::vector<std::string> bad;
  if (f.hist_count != f.requests) {
    bad.push_back("rtt_hist.count() " + num(f.hist_count) + " != requests " + num(f.requests));
  }
  if (f.connections_established != f.connections_requested) {
    bad.push_back("established " + std::to_string(f.connections_established) +
                  " of " + std::to_string(f.connections_requested) + " connections");
  }
  const std::uint64_t served =
      f.echo ? (f.request_bytes == 0 ? 0 : f.server_bytes_out / f.request_bytes)
             : f.server_requests;
  if (served < f.gen_total) {
    bad.push_back("server served " + num(served) + " < generator total " + num(f.gen_total));
  }
  if (f.echo && f.server_bytes_in != f.server_bytes_out) {
    bad.push_back("echo bytes in " + num(f.server_bytes_in) + " != bytes out " +
                  num(f.server_bytes_out));
  }
  return bad;
}

std::optional<std::string> check_suite_result(const lmb::RunResult& r) {
  if (!r.ok()) {
    return r.name + ": status " + lmb::run_status_name(r.status) + " (" + r.error + ")";
  }
  for (const lmb::Metric& m : r.metrics) {
    if (std::isfinite(m.value)) {
      return std::nullopt;
    }
  }
  return r.name + ": no finite metric";
}

std::optional<std::string> check_results_json(const std::vector<lmb::RunResult>& results,
                                              const std::string& json_text) {
  lmb::report::ResultBatch parsed;
  try {
    parsed = lmb::report::from_json(json_text);
  } catch (const std::exception& e) {
    return std::string("results.v1 does not parse: ") + e.what();
  }
  if (parsed.results.size() != results.size()) {
    return "results.v1 holds " + std::to_string(parsed.results.size()) + " results, run had " +
           std::to_string(results.size());
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (parsed.results[i].name != results[i].name ||
        parsed.results[i].metrics.size() != results[i].metrics.size()) {
      return "results.v1 entry " + std::to_string(i) + " (" + parsed.results[i].name +
             ") differs from the run's " + results[i].name;
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_submit_done(const lmb::report::JsonValue& done) {
  try {
    const lmb::report::JsonObject& obj = done.object();
    const lmb::report::JsonValue* event = lmb::report::find(obj, "event");
    if (event == nullptr || event->str() != "done") {
      return "submit ended without a done frame";
    }
    const lmb::report::JsonValue* ok = lmb::report::find(obj, "ok");
    if (ok == nullptr || !ok->boolean()) {
      return "submit done frame is not ok";
    }
    const lmb::report::JsonValue* code = lmb::report::find(obj, "exit_code");
    if (code == nullptr || code->number() != 0) {
      return "submit exit code is not 0";
    }
  } catch (const std::exception& e) {
    return std::string("malformed submit done frame: ") + e.what();
  }
  return std::nullopt;
}

std::optional<std::string> check_results_reply(const lmb::report::JsonValue& reply,
                                               const std::string& bench) {
  try {
    const lmb::report::JsonObject& obj = reply.object();
    const lmb::report::JsonValue* ok = lmb::report::find(obj, "ok");
    if (ok == nullptr || !ok->boolean()) {
      return "results reply is not ok";
    }
    const lmb::report::JsonValue* results = lmb::report::find(obj, "results");
    if (results == nullptr || results->is_null()) {
      return "results reply carries no batch";
    }
    lmb::report::ResultBatch batch = lmb::report::from_json(lmb::report::to_text(*results));
    for (const lmb::RunResult& r : batch.results) {
      if (r.name == bench) {
        return std::nullopt;
      }
    }
    return "results batch does not name " + bench;
  } catch (const std::exception& e) {
    return std::string("results reply does not parse: ") + e.what();
  }
}

}  // namespace perfbench
