// CPU topology discovery, thread affinity, and a pinned-thread pool.
//
// The parallel bandwidth harness (src/bw/parallel.h) needs to know how many
// logical CPUs / physical cores / sockets the host has and to pin each
// worker to its own CPU — nanoBench-style explicit placement, because an
// unpinned bandwidth worker that migrates mid-interval measures the
// scheduler, not the memory system.  On Linux the topology comes from
// /sys/devices/system/cpu; elsewhere we fall back to
// std::thread::hardware_concurrency() and pinning degrades to a no-op.
#ifndef LMBENCHPP_SRC_CORE_TOPOLOGY_H_
#define LMBENCHPP_SRC_CORE_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace lmb {

// One online logical CPU.  core_id/package_id are -1 when sysfs did not
// provide them (non-Linux, or a restricted /sys): such CPUs are treated as
// distinct physical cores on one package.
struct LogicalCpu {
  int cpu = 0;         // kernel CPU number, usable with pin_current_thread
  int core_id = -1;    // physical core within the package
  int package_id = -1; // socket
};

struct CpuTopology {
  std::vector<LogicalCpu> cpus;  // online logical CPUs, sorted by cpu number

  int logical_cpus() const { return static_cast<int>(cpus.size()); }
  // Distinct (package, core) pairs; equals logical_cpus() without SMT or
  // when sysfs detail is unavailable.
  int physical_cores() const;
  int packages() const;

  // CPU numbers in pinning order: one logical CPU per physical core first
  // (round-robin across packages so two workers land on two sockets'
  // memory controllers before sharing one), then the SMT siblings.  Worker
  // w of N pins to pin_order()[w % size].
  std::vector<int> pin_order() const;

  // "8 cpus / 4 cores / 1 socket" style one-liner for reports.
  std::string summary() const;
};

// Parses a sysfs cpulist ("0-3,8,10-11") into CPU numbers; malformed
// segments are skipped.
std::vector<int> parse_cpu_list(const std::string& text);

// Reads the host topology.  Never throws; always returns at least one CPU.
// The per-CPU walk is cached for as long as the online CPU list reads the
// same, so a repeat call costs one small sysfs read.
CpuTopology query_topology();

// True when this build/OS can set per-thread CPU affinity at all.
bool affinity_supported();

// Pins the calling thread to one CPU.  Returns false (leaving affinity
// unchanged) when unsupported or when the kernel rejects the mask — callers
// treat pinning as best-effort.
bool pin_current_thread(int cpu);

// Restores the calling thread's affinity to all CPUs in `topology` (undo
// for pin_current_thread).  Best-effort, same contract.
bool unpin_current_thread(const CpuTopology& topology);

// CPU the calling thread is executing on, or -1 when unknowable.
int current_cpu();

// A fixed pool of workers, each optionally pinned to its own CPU (assigned
// from CpuTopology::pin_order) for its whole lifetime.  run_all() is the
// only dispatch primitive the bandwidth harness needs: execute one function
// on every worker and wait.  Not a general task queue by design.
class PinnedThreadPool {
 public:
  // Spawns `threads` workers (minimum 1).  When `pin` is true each worker
  // pins itself before signalling readiness; failures downgrade that worker
  // to unpinned (-1 in assigned_cpus()).  The constructor returns only
  // after every worker is running.
  explicit PinnedThreadPool(int threads, bool pin = true);
  PinnedThreadPool(int threads, bool pin, const CpuTopology& topology);

  PinnedThreadPool(const PinnedThreadPool&) = delete;
  PinnedThreadPool& operator=(const PinnedThreadPool&) = delete;
  ~PinnedThreadPool();

  int size() const { return static_cast<int>(threads_.size()); }

  // CPU worker w was pinned to, or -1 when unpinned.
  const std::vector<int>& assigned_cpus() const { return assigned_cpus_; }

  // Runs fn(worker_index) on every worker concurrently and waits for all of
  // them to return.  An exception thrown by any worker is rethrown here
  // (first one wins).  Not reentrant.
  void run_all(const std::function<void(int)>& fn);

 private:
  struct State;
  std::vector<int> assigned_cpus_;
  std::unique_ptr<State> state_;
  std::vector<std::thread> threads_;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_TOPOLOGY_H_
