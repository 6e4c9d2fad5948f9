#include "src/core/topology.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace lmb {

namespace {

#if defined(__linux__)

// Reads a small integer file like /sys/devices/system/cpu/cpu0/topology/
// core_id.  Returns fallback on any error — sysfs may be absent or
// restricted (containers), and topology must degrade, not throw.
int read_sysfs_int(const std::string& path, int fallback) {
  std::ifstream in(path);
  int value = 0;
  if (in >> value) {
    return value;
  }
  return fallback;
}

// The online CPU list, verbatim ("0-3"); "" when unreadable.
std::string online_cpu_list() {
  std::ifstream in("/sys/devices/system/cpu/online");
  std::string text;
  std::getline(in, text);
  return text;
}

#endif  // __linux__

std::vector<LogicalCpu> fallback_cpus() {
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) {
    n = 1;
  }
  std::vector<LogicalCpu> cpus(n);
  for (unsigned i = 0; i < n; ++i) {
    cpus[i].cpu = static_cast<int>(i);
  }
  return cpus;
}

}  // namespace

std::vector<int> parse_cpu_list(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream ss(text);
  std::string range;
  while (std::getline(ss, range, ',')) {
    if (range.empty()) {
      continue;
    }
    size_t dash = range.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(range));
      } else {
        int lo = std::stoi(range.substr(0, dash));
        int hi = std::stoi(range.substr(dash + 1));
        for (int c = lo; c <= hi; ++c) {
          cpus.push_back(c);
        }
      }
    } catch (const std::exception&) {
      // Malformed segment: skip it rather than fail discovery.
    }
  }
  return cpus;
}

int CpuTopology::physical_cores() const {
  std::set<std::pair<int, int>> cores;
  int unknown = 0;
  for (const LogicalCpu& c : cpus) {
    if (c.core_id < 0) {
      ++unknown;  // no sysfs detail: count each such CPU as its own core
    } else {
      cores.insert({c.package_id, c.core_id});
    }
  }
  return static_cast<int>(cores.size()) + unknown;
}

int CpuTopology::packages() const {
  std::set<int> pkgs;
  bool any_unknown = false;
  for (const LogicalCpu& c : cpus) {
    if (c.package_id < 0) {
      any_unknown = true;
    } else {
      pkgs.insert(c.package_id);
    }
  }
  if (pkgs.empty()) {
    return cpus.empty() ? 0 : 1;
  }
  return static_cast<int>(pkgs.size()) + (any_unknown ? 1 : 0);
}

std::vector<int> CpuTopology::pin_order() const {
  // Group logical CPUs by physical core, keep each group in cpu-number
  // order (first member = the "primary" SMT thread), then emit one CPU per
  // core round-robin across packages, then second SMT threads, and so on.
  std::map<std::pair<int, int>, std::vector<int>> by_core;
  int synthetic = 0;
  for (const LogicalCpu& c : cpus) {
    if (c.core_id < 0) {
      // Unknown topology: give each CPU a synthetic core so the order
      // degenerates to plain cpu-number order.
      by_core[{0, 1'000'000 + synthetic++}].push_back(c.cpu);
    } else {
      by_core[{c.package_id, c.core_id}].push_back(c.cpu);
    }
  }
  // Interleave packages: sort core keys by (core index within package,
  // package) so consecutive picks alternate sockets.
  std::vector<std::pair<std::pair<int, int>, std::vector<int>>> cores(by_core.begin(),
                                                                      by_core.end());
  std::map<int, int> per_pkg_index;
  std::vector<std::pair<std::pair<int, int>, const std::vector<int>*>> ordered;
  ordered.reserve(cores.size());
  for (const auto& [key, members] : cores) {
    ordered.push_back({{per_pkg_index[key.first]++, key.first}, &members});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<int> order;
  order.reserve(cpus.size());
  for (size_t level = 0; order.size() < cpus.size(); ++level) {
    bool emitted = false;
    for (const auto& [key, members] : ordered) {
      if (level < members->size()) {
        order.push_back((*members)[level]);
        emitted = true;
      }
    }
    if (!emitted) {
      break;  // defensive: should be unreachable
    }
  }
  return order;
}

std::string CpuTopology::summary() const {
  std::ostringstream os;
  os << logical_cpus() << " cpu" << (logical_cpus() == 1 ? "" : "s") << " / "
     << physical_cores() << " core" << (physical_cores() == 1 ? "" : "s") << " / "
     << packages() << " socket" << (packages() == 1 ? "" : "s");
  return os.str();
}

CpuTopology query_topology() {
#if defined(__linux__)
  // Memoized on the online list: CPU hotplug and SMT toggles rewrite it,
  // so a cached walk of the per-CPU topology files is never stale.
  static std::mutex mu;
  static std::string cached_online;
  static CpuTopology cached;
  const std::string online = online_cpu_list();
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!online.empty() && online == cached_online) {
      return cached;
    }
  }
  CpuTopology topo;
  for (int cpu : parse_cpu_list(online)) {
    std::string base = "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    LogicalCpu lc;
    lc.cpu = cpu;
    lc.core_id = read_sysfs_int(base + "core_id", -1);
    lc.package_id = read_sysfs_int(base + "physical_package_id", -1);
    topo.cpus.push_back(lc);
  }
  std::sort(topo.cpus.begin(), topo.cpus.end(),
            [](const LogicalCpu& a, const LogicalCpu& b) { return a.cpu < b.cpu; });
  if (topo.cpus.empty()) {
    topo.cpus = fallback_cpus();
  } else {
    std::lock_guard<std::mutex> lock(mu);
    cached_online = online;
    cached = topo;
  }
  return topo;
#else
  CpuTopology topo;
  topo.cpus = fallback_cpus();
  return topo;
#endif
}

bool affinity_supported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

bool unpin_current_thread(const CpuTopology& topology) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (const LogicalCpu& c : topology.cpus) {
    if (c.cpu >= 0 && c.cpu < CPU_SETSIZE) {
      CPU_SET(c.cpu, &set);
      any = true;
    }
  }
  if (!any) {
    return false;
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)topology;
  return false;
#endif
}

int current_cpu() {
#if defined(__linux__)
  int cpu = sched_getcpu();
  return cpu >= 0 ? cpu : -1;
#else
  return -1;
#endif
}

// Shared worker state: a generation counter wakes all workers for one
// run_all round; `remaining` counts workers still inside the round.
struct PinnedThreadPool::State {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  const std::function<void(int)>* task = nullptr;
  int remaining = 0;
  int started = 0;  // workers that finished startup (pin + first wait)
  bool shutdown = false;
  std::exception_ptr error;
};

PinnedThreadPool::PinnedThreadPool(int threads, bool pin)
    : PinnedThreadPool(threads, pin, query_topology()) {}

PinnedThreadPool::PinnedThreadPool(int threads, bool pin, const CpuTopology& topology)
    : state_(std::make_unique<State>()) {
  if (threads < 1) {
    threads = 1;
  }
  std::vector<int> order = topology.pin_order();
  assigned_cpus_.assign(static_cast<size_t>(threads), -1);
  threads_.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    int target = (pin && affinity_supported() && !order.empty())
                     ? order[static_cast<size_t>(w) % order.size()]
                     : -1;
    threads_.emplace_back([this, w, target] {
      if (target >= 0 && pin_current_thread(target)) {
        assigned_cpus_[static_cast<size_t>(w)] = target;
      }
      State& st = *state_;
      std::unique_lock<std::mutex> lock(st.mu);
      ++st.started;
      st.done_cv.notify_all();
      std::uint64_t seen = 0;
      for (;;) {
        st.work_cv.wait(lock, [&] { return st.shutdown || st.generation != seen; });
        if (st.shutdown) {
          return;
        }
        seen = st.generation;
        const std::function<void(int)>* task = st.task;
        lock.unlock();
        std::exception_ptr err;
        try {
          (*task)(w);
        } catch (...) {
          err = std::current_exception();
        }
        lock.lock();
        if (err && !st.error) {
          st.error = err;
        }
        if (--st.remaining == 0) {
          st.done_cv.notify_all();
        }
      }
    });
  }
  // Wait for startup so assigned_cpus() is final once the constructor
  // returns (workers write their slot before signalling).
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [&] { return state_->started == threads; });
}

PinnedThreadPool::~PinnedThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->shutdown = true;
  }
  state_->work_cv.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void PinnedThreadPool::run_all(const std::function<void(int)>& fn) {
  State& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  st.task = &fn;
  st.remaining = size();
  st.error = nullptr;
  ++st.generation;
  st.work_cv.notify_all();
  st.done_cv.wait(lock, [&] { return st.remaining == 0; });
  st.task = nullptr;
  if (st.error) {
    std::exception_ptr err = st.error;
    st.error = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace lmb
