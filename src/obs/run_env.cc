#include "src/obs/run_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/core/env.h"
#include "src/core/topology.h"

namespace lmb::obs {

namespace {

// First line of a sysfs/procfs file, trailing whitespace stripped; "" on
// any error (absent file, restricted container).
std::string read_line(const std::string& path) {
  std::string text;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return text;
  }
  char buf[4096];
  ssize_t n = 0;
  while (text.find('\n') == std::string::npos &&
         (n = ::read(fd, buf, sizeof(buf))) > 0) {
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  text.resize(std::min(text.find('\n'), text.size()));
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.pop_back();
  }
  return text;
}

std::string or_unknown(std::string s) { return s.empty() ? "unknown" : std::move(s); }

// Reads cpuN/cpufreq/scaling_governor for every CPU in the sysfs cpu
// directory's online list.  One agreed value comes back as-is;
// disagreement as "mixed(a,b)"; none found as "unknown".
std::string scan_governor(const std::string& cpu_dir) {
  std::set<std::string> seen;
  for (int cpu : parse_cpu_list(read_line(cpu_dir + "/online"))) {
    std::string governor =
        read_line(cpu_dir + "/cpu" + std::to_string(cpu) + "/cpufreq/scaling_governor");
    if (!governor.empty()) {
      seen.insert(governor);
    }
  }
  if (seen.empty()) {
    return "unknown";
  }
  if (seen.size() == 1) {
    return *seen.begin();
  }
  std::string out = "mixed(";
  bool first = true;
  for (const std::string& g : seen) {
    out += (first ? "" : ",") + g;
    first = false;
  }
  return out + ")";
}

// Turbo state: intel_pstate exposes no_turbo (1 = turbo OFF); acpi-cpufreq
// exposes boost (1 = turbo ON).
std::string scan_turbo(const std::string& cpu_dir) {
  std::string no_turbo = read_line(cpu_dir + "/intel_pstate/no_turbo");
  if (no_turbo == "0") {
    return "on";
  }
  if (no_turbo == "1") {
    return "off";
  }
  std::string boost = read_line(cpu_dir + "/cpufreq/boost");
  if (boost == "1") {
    return "on";
  }
  if (boost == "0") {
    return "off";
  }
  return "unknown";
}

std::string scan_smt(const std::string& cpu_dir) {
  std::string active = read_line(cpu_dir + "/smt/active");
  if (active == "1") {
    return "on";
  }
  if (active == "0") {
    return "off";
  }
  return "unknown";
}

// Value of one `key=value` kernel boot parameter in a /proc/cmdline line;
// "none" when the parameter is absent, the verbatim value otherwise.
// Matches whole parameter names only (isolcpus, not e.g. foo_isolcpus).
std::string cmdline_param(const std::string& cmdline, const std::string& key) {
  size_t pos = 0;
  while (pos < cmdline.size()) {
    size_t end = cmdline.find(' ', pos);
    if (end == std::string::npos) {
      end = cmdline.size();
    }
    const std::string token = cmdline.substr(pos, end - pos);
    if (token.compare(0, key.size() + 1, key + "=") == 0) {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return "none";
}

// The kernel command line.  The real one is fixed at boot, so it is read
// once per process; any other tree (a test's stub) is read on every call.
std::string kernel_cmdline(const std::string& proc_root) {
  if (proc_root != "/proc") {
    return read_line(proc_root + "/cmdline");
  }
  static const std::string boot = read_line("/proc/cmdline");
  return boot;
}

}  // namespace

bool RunEnvironment::empty() const {
  for (const EnvField& f : environment_fields(*this)) {
    if (!f.value.empty()) {
      return false;
    }
  }
  return warnings.empty();
}

std::vector<EnvField> environment_fields(const RunEnvironment& env) {
  return {
      {"hostname", env.hostname, false},
      {"os", env.os, true},
      {"kernel", env.kernel, true},
      {"machine", env.machine, true},
      {"cpu_model", env.cpu_model, true},
      {"cpu_count", env.cpu_count, true},
      {"topology", env.topology, true},
      {"governor", env.governor, true},
      {"turbo", env.turbo, true},
      {"smt", env.smt, true},
      {"aslr", env.aslr, true},
      {"isolcpus", env.isolcpus, true},
      {"nohz_full", env.nohz_full, true},
      {"rcu_nocbs", env.rcu_nocbs, true},
      {"loadavg1", env.loadavg1, false},
      {"compiler", env.compiler, true},
      {"build", env.build, true},
  };
}

void set_environment_field(RunEnvironment& env, const std::string& name,
                           const std::string& value) {
  if (name == "hostname") env.hostname = value;
  else if (name == "os") env.os = value;
  else if (name == "kernel") env.kernel = value;
  else if (name == "machine") env.machine = value;
  else if (name == "cpu_model") env.cpu_model = value;
  else if (name == "cpu_count") env.cpu_count = value;
  else if (name == "topology") env.topology = value;
  else if (name == "governor") env.governor = value;
  else if (name == "turbo") env.turbo = value;
  else if (name == "smt") env.smt = value;
  else if (name == "aslr") env.aslr = value;
  else if (name == "isolcpus") env.isolcpus = value;
  else if (name == "nohz_full") env.nohz_full = value;
  else if (name == "rcu_nocbs") env.rcu_nocbs = value;
  else if (name == "loadavg1") env.loadavg1 = value;
  else if (name == "compiler") env.compiler = value;
  else if (name == "build") env.build = value;
  // Unknown fields from newer producers are ignored.
}

RunEnvironment capture_run_environment(const SystemInfo& info, const std::string& sysfs_root,
                                       const std::string& proc_root) {
  RunEnvironment env;

  env.hostname = info.hostname;
  env.os = info.os_name;
  env.kernel = info.os_release;
  env.machine = info.machine;
  env.cpu_model = or_unknown(info.cpu_model);
  env.cpu_count = std::to_string(info.cpu_count);
  env.topology = query_topology().summary();

  const std::string cpu_dir = sysfs_root + "/devices/system/cpu";
  env.governor = scan_governor(cpu_dir);
  env.turbo = scan_turbo(cpu_dir);
  env.smt = scan_smt(cpu_dir);
  env.aslr = or_unknown(read_line(proc_root + "/sys/kernel/randomize_va_space"));

  std::string cmdline = kernel_cmdline(proc_root);
  // /proc/cmdline separates parameters with spaces but some stub trees (and
  // the kernel's own args passing) use NULs; normalize before scanning.
  std::replace(cmdline.begin(), cmdline.end(), '\0', ' ');
  if (cmdline.empty()) {
    env.isolcpus = env.nohz_full = env.rcu_nocbs = "unknown";
  } else {
    env.isolcpus = cmdline_param(cmdline, "isolcpus");
    env.nohz_full = cmdline_param(cmdline, "nohz_full");
    env.rcu_nocbs = cmdline_param(cmdline, "rcu_nocbs");
  }

  std::string loadavg = read_line(proc_root + "/loadavg");
  std::istringstream ls(loadavg);
  ls >> env.loadavg1;

#if defined(__clang__)
  env.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
#if defined(LMBPP_BUILD_INFO)
  env.build = LMBPP_BUILD_INFO;
#else
  env.build = "unknown";
#endif

  env.warnings = environment_warnings(env);
  return env;
}

RunEnvironment capture_run_environment(const std::string& sysfs_root,
                                       const std::string& proc_root) {
  return capture_run_environment(query_system_info(), sysfs_root, proc_root);
}

std::vector<std::string> environment_warnings(const RunEnvironment& env) {
  std::vector<std::string> warnings;
  if (!env.governor.empty() && env.governor != "unknown" && env.governor != "performance") {
    warnings.push_back("cpu frequency governor is '" + env.governor +
                       "' (not 'performance'); timings will be noisier and slower");
  }
  if (env.turbo == "on") {
    warnings.push_back(
        "turbo boost is enabled; clock frequency will vary with thermal headroom "
        "across the run");
  }
  if (env.isolcpus == "none" && env.nohz_full == "none" && env.rcu_nocbs == "none") {
    warnings.push_back(
        "no core isolation (isolcpus/nohz_full/rcu_nocbs unset); timer ticks and "
        "stray tasks share the measured cores — nanoscale timings will carry more "
        "outliers");
  }
  double load = -1.0;
  try {
    if (!env.loadavg1.empty()) {
      load = std::stod(env.loadavg1);
    }
  } catch (...) {
    load = -1.0;
  }
  int cpus = 0;
  try {
    if (!env.cpu_count.empty()) {
      cpus = std::stoi(env.cpu_count);
    }
  } catch (...) {
    cpus = 0;
  }
  double threshold = std::max(1.0, 0.5 * cpus);
  if (load > threshold) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "load average %.2f is high for %d cpus; other processes will perturb "
                  "timings",
                  load, cpus);
    warnings.push_back(buf);
  }
  return warnings;
}

std::vector<EnvDelta> diff_environments(const RunEnvironment& baseline,
                                        const RunEnvironment& current) {
  std::vector<EnvDelta> deltas;
  std::vector<EnvField> b = environment_fields(baseline);
  std::vector<EnvField> c = environment_fields(current);
  for (size_t i = 0; i < b.size(); ++i) {
    if (b[i].value == c[i].value) {
      continue;
    }
    if (b[i].value.empty() && c[i].value.empty()) {
      continue;
    }
    deltas.push_back({b[i].name, b[i].value, c[i].value, b[i].significant});
  }
  return deltas;
}

}  // namespace lmb::obs
