#include "perfbench/src/output.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "src/core/env.h"
#include "src/report/json.h"
#include "src/report/trace_io.h"

namespace perfbench {

namespace {

using lmb::report::json_double;
using lmb::report::json_quote;

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += json_quote(metrics[i].name) + ": {\"value\": " + json_double(metrics[i].value) +
           ", \"unit\": " + json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const PassResult& pass) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : end_to_end_specs()) {
    if (const Metric* m = pass.find(spec.name)) {
      out.push_back(*m);
    }
  }
  return out;
}

std::vector<Metric> layer_metrics(const std::vector<PassResult>& traced) {
  std::vector<Metric> out;
  for (const PassResult& pass : traced) {
    for (const Metric& m : pass.layer) {
      out.push_back({pass.workload + "." + m.name, m.value, m.unit});
    }
  }
  return out;
}

std::vector<Metric> overhead_metrics(const PassResult& untraced, const PassResult& traced,
                                     double spans) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : end_to_end_specs()) {
    if (spec.name == "peak_rss_mb") {
      continue;  // a process-wide maximum: the later pass always includes the earlier
    }
    const Metric* plain = untraced.find(spec.name);
    const Metric* with_spans = traced.find(spec.name);
    if (plain != nullptr && with_spans != nullptr) {
      out.push_back({"trace_overhead." + spec.name, with_spans->value - plain->value, spec.unit});
    }
  }
  out.push_back({"trace.spans", spans, "count"});
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics_object(metrics) +
         "}";
}

void print_pass(std::ostream& out, const PassResult& pass, const std::string& label) {
  out << "# " << pass.workload << " (" << label << ")\n";
  for (const auto& [key, value] : pass.provenance) {
    out << pass.workload << " provenance " << key << " " << value << "\n";
  }
  for (const Metric& m : pass.named) {
    out << pass.workload << " " << m.name << " " << json_double(m.value) << " " << m.unit << "\n";
  }
  for (const Metric& m : pass.layer) {
    out << pass.workload << " layer " << m.name << " " << json_double(m.value) << " " << m.unit
        << "\n";
  }
  out << pass.workload << " attempted " << pass.attempted << " failed " << pass.failed << "\n";
  for (const std::string& f : pass.check_failures) {
    out << pass.workload << " CHECK FAILED " << f << "\n";
  }
}

void write_spans(const std::filesystem::path& path, SpanRecorder& spans, const PassResult& pass) {
  std::vector<lmb::obs::TraceEvent> events = spans.sink().events();
  events.insert(events.end(), pass.program_events.begin(), pass.program_events.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const lmb::obs::TraceEvent& a, const lmb::obs::TraceEvent& b) {
                     return a.ts < b.ts;
                   });
  write_file(path, lmb::report::trace_to_json(events, lmb::query_system_info().label()));
}

}  // namespace perfbench
