#include "src/core/env.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <fstream>

namespace lmb {

namespace {

// The first "model name" in /proc/cpuinfo.  The kernel fixes it at boot,
// and generating /proc/cpuinfo samples every CPU's clock, so it is read
// once per process.
const std::string& boot_cpu_model() {
  static const std::string model = [] {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      if (line.rfind("model name", 0) == 0) {
        auto colon = line.find(':');
        if (colon != std::string::npos) {
          size_t start = line.find_first_not_of(" \t", colon + 1);
          if (start != std::string::npos) {
            return line.substr(start);
          }
        }
        break;
      }
    }
    return std::string();
  }();
  return model;
}

}  // namespace

std::string SystemInfo::label() const {
  std::string out = os_name.empty() ? "unknown" : os_name;
  if (!machine.empty()) {
    out += "/" + machine;
  }
  return out;
}

SystemInfo query_system_info() {
  SystemInfo info;

  struct utsname un;
  if (uname(&un) == 0) {
    info.os_name = un.sysname;
    info.os_release = un.release;
    info.machine = un.machine;
    info.hostname = un.nodename;
  }

  long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  info.cpu_count = cpus > 0 ? static_cast<int>(cpus) : 0;

  long page = sysconf(_SC_PAGESIZE);
  info.page_size = page > 0 ? page : 0;

  long pages = sysconf(_SC_PHYS_PAGES);
  if (pages > 0 && page > 0) {
    info.phys_mem_bytes = static_cast<std::int64_t>(pages) * page;
  }

  info.cpu_model = boot_cpu_model();
  return info;
}

namespace {

// Collapses whitespace/brackets to '-' so the signature is one safe token.
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    bool unsafe = c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '[' || c == ']';
    out += unsafe ? '-' : c;
  }
  return out;
}

}  // namespace

std::string host_signature(const SystemInfo& info) {
  std::string sig = sanitize(info.hostname.empty() ? "unknown" : info.hostname);
  sig += "|" + sanitize(info.cpu_model.empty() ? "unknown-cpu" : info.cpu_model);
  sig += "|" + std::to_string(info.cpu_count) + "cpu";
  sig += "|" + sanitize(info.os_release.empty() ? "unknown-os" : info.os_release);
  return sig;
}

std::string host_signature() { return host_signature(query_system_info()); }

}  // namespace lmb
