// perfbench: the lmbench++ end-to-end benchmark.
//
//   perfbench --workload <echo_closed|rpc_open|suite_quick|daemon_ops|all>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs it twice for half the time each, untraced and traced,
// reports the difference as the tracing overhead, and adds a shorter traced
// pass of every other workload, so each traced run reports every
// workload's per-layer metrics.
// Human-readable lines come first; the last stdout line is the JSON result.
// A traced run writes its spans under .bench_out/.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "perfbench/src/harness.h"
#include "perfbench/src/output.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// Traced passes of the workloads a --trace 1 run is not about.
constexpr double kOtherTracedSeconds = 2.0;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

// Removes the per-run scratch directory on every exit path.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Fix glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
  // rises after the first large free, and later buffers come from heaps
  // that stay resident; which heap a thread reuses varies from run to run,
  // so peak RSS measured the allocator's history (77 to 114 MB for one
  // suite run), not the program's footprint (31 MB).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::map<std::string, std::string> args = {
      {"workload", ""}, {"seed", "1"}, {"seconds", "10"}, {"trace", "0"}};
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || !args.count(key.substr(2)) || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  const std::string workload = args["workload"];
  std::uint64_t seed = 0;
  double seconds = 0;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  const bool traced = args["trace"] == "1";
  if (!traced && args["trace"] != "0") {
    return usage("--trace takes 0 or 1");
  }
  std::vector<std::string> targets;
  if (workload == "all") {
    targets = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(), workload) !=
             workload_names().end()) {
    targets = {workload};
  } else {
    return usage("unknown --workload '" + workload + "'");
  }
  if (!(seconds > 0)) {
    return usage("--seconds must be positive");
  }

  try {
    // Everything the run writes stays inside the checkout: scratch under
    // .bench_out/run-<pid> (relative, so Unix socket paths stay short),
    // and benchmarks' temp files there too via TMPDIR.
    const fs::path out_dir = ".bench_out";
    ScratchDir scratch{out_dir / ("run-" + std::to_string(::getpid()))};
    fs::create_directories(scratch.path / "tmp");
    ::setenv("TMPDIR", fs::absolute(scratch.path / "tmp").c_str(), 1);

    auto config_for = [&](const std::string& w, double secs, SpanRecorder* spans,
                          const std::string& tag) {
      PassConfig c;
      c.seed = seed;
      c.seconds = secs;
      c.spans = spans;
      c.workdir = scratch.path / (w + "-" + tag);
      return c;
    };
    const std::string stem = "seed" + std::to_string(seed) + "-trace" + args["trace"];

    std::vector<PassResult> passes;
    std::vector<std::string> labels;
    std::vector<Metric> metrics;
    if (!traced) {
      for (const std::string& w : targets) {
        passes.push_back(run_pass(w, config_for(w, seconds, nullptr, "untraced")));
        labels.push_back("untraced");
        for (Metric m : end_to_end_metrics(passes.back())) {
          if (targets.size() > 1) {
            m.name = w + "." + m.name;
          }
          metrics.push_back(std::move(m));
        }
      }
    } else {
      std::map<std::string, PassResult> untraced;
      for (const std::string& w : targets) {
        untraced[w] = run_pass(w, config_for(w, seconds / 2, nullptr, "untraced"));
        passes.push_back(untraced[w]);
        labels.push_back("untraced");
      }
      std::vector<PassResult> traced_passes;
      std::map<std::string, double> span_counts;
      for (const std::string& w : workload_names()) {
        const bool target = untraced.count(w) > 0;
        SpanRecorder spans;
        traced_passes.push_back(
            run_pass(w, config_for(w, target ? seconds / 2 : kOtherTracedSeconds, &spans, "traced")));
        span_counts[w] = static_cast<double>(spans.size());
        write_spans(out_dir / ("spans-" + workload + "." + w + "-" + stem + ".json"), spans,
                    traced_passes.back());
        passes.push_back(traced_passes.back());
        labels.push_back(target ? "traced" : "traced, short");
      }
      metrics = layer_metrics(traced_passes);
      for (const PassResult& p : traced_passes) {
        if (untraced.count(p.workload) == 0) {
          continue;
        }
        for (Metric m : overhead_metrics(untraced[p.workload], p, span_counts[p.workload])) {
          if (targets.size() > 1) {
            m.name = p.workload + "." + m.name;
          }
          metrics.push_back(std::move(m));
        }
      }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_passed = true;
    for (size_t i = 0; i < passes.size(); ++i) {
      print_pass(std::cout, passes[i], labels[i]);
      attempted += passes[i].attempted;
      failed += passes[i].failed;
      checks_passed = checks_passed && passes[i].check_failures.empty();
    }
    const bool correct = checks_passed && failed == 0 && attempted > 0;
    std::cout << result_line(correct, attempted, failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
