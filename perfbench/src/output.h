// What a benchmark run prints and writes: the two metric sets, the
// human-readable lines, the final JSON line, and the span files.
#ifndef PERFBENCH_SRC_OUTPUT_H_
#define PERFBENCH_SRC_OUTPUT_H_

#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

// The --trace 0 metric set of an untraced pass: every end_to_end_specs()
// metric, in that order (absent ones are skipped; the run is then not
// correct anyway).
std::vector<Metric> end_to_end_metrics(const PassResult& pass);

// The --trace 1 layer metrics: every traced pass's layer metrics, named
// "<workload>.<metric>".
std::vector<Metric> layer_metrics(const std::vector<PassResult>& traced);

// A workload's tracing overhead: "trace_overhead.<metric>" for each
// end-to-end metric (traced minus untraced, in the metric's unit) and its
// span count as "trace.spans".
std::vector<Metric> overhead_metrics(const PassResult& untraced, const PassResult& traced,
                                     double spans);

// The last stdout line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

// Human-readable report of one pass: provenance, every named and per-layer
// metric with its unit, and every failed check.
void print_pass(std::ostream& out, const PassResult& pass, const std::string& label);

// Writes `spans` (plus the pass's program events) as an lmbenchpp.trace.v1
// document that report::trace_from_json and Perfetto both read.
void write_spans(const std::filesystem::path& path, SpanRecorder& spans,
                 const PassResult& pass);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_OUTPUT_H_
