// Output checks, one set per workload.  Each takes plain facts the harness
// read back from the program and returns what is wrong, so the tests can
// hand them a deliberately corrupted result.  None of them reads the load
// generator's raw RTT reservoir.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/run_result.h"
#include "src/report/json.h"

namespace perfbench {

// One load round, as LoadResult and LoadServer::stats() report it after
// stop().
struct LoadFacts {
  bool echo = true;                    // echo protocol (else RPC)
  int connections_requested = 0;
  int connections_established = 0;     // LoadResult::connections
  std::uint64_t hist_count = 0;        // rtt_hist.count()
  std::uint64_t requests = 0;          // LoadResult::requests (measured window)
  std::uint64_t gen_total = 0;         // LoadResult::total_requests
  std::uint64_t request_bytes = 0;     // echo message size
  std::uint64_t server_requests = 0;   // LoadServerStats::requests (RPC frames)
  std::uint64_t server_bytes_in = 0;
  std::uint64_t server_bytes_out = 0;
};

// rtt_hist.count() == requests; every requested connection established;
// the server served at least the generator's total (echo: bytes_out /
// message size); echo bytes in == bytes out.
std::vector<std::string> check_load(const LoadFacts& facts);

// A suite benchmark result must be ok and carry at least one finite metric.
std::optional<std::string> check_suite_result(const lmb::RunResult& result);

// The written lmbenchpp.results.v1 document parses back to the same result
// count and, per result, the same metric count.
std::optional<std::string> check_results_json(const std::vector<lmb::RunResult>& results,
                                              const std::string& json_text);

// A daemon submit's terminal frame: event "done", ok, exit code 0.
std::optional<std::string> check_submit_done(const lmb::report::JsonValue& done);

// A daemon `results` reply: ok, an lmbenchpp.results.v1 batch that parses
// and names `bench` among its results.
std::optional<std::string> check_results_reply(const lmb::report::JsonValue& reply,
                                               const std::string& bench);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
