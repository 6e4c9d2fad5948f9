// Host system description, used to label result rows (paper Table 1).
#ifndef LMBENCHPP_SRC_CORE_ENV_H_
#define LMBENCHPP_SRC_CORE_ENV_H_

#include <cstdint>
#include <string>

namespace lmb {

struct SystemInfo {
  std::string hostname;
  std::string os_name;      // uname sysname
  std::string os_release;   // uname release
  std::string machine;      // uname machine (e.g. x86_64)
  std::string cpu_model;    // best-effort from /proc/cpuinfo, read once per process
  int cpu_count = 0;        // online CPUs
  std::int64_t page_size = 0;
  std::int64_t phys_mem_bytes = 0;  // 0 if unknown

  // "Linux/x86_64 hostname" style label for tables.
  std::string label() const;
};

// Gathers host facts.  Never throws; unknown fields are left empty/zero.
// Every field but cpu_model (fixed at boot) is read on every call.
SystemInfo query_system_info();

// A stable single-token fingerprint of this host for keying persisted
// calibration state: hostname, CPU model, core count, and kernel release.
// Any of those changing (new machine, kernel upgrade, CPU swap) must
// invalidate cached iteration counts.  Contains no whitespace or brackets
// so it can live inside the db text format's `[system]` headers.
std::string host_signature(const SystemInfo& info);
std::string host_signature();  // of this host

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_ENV_H_
