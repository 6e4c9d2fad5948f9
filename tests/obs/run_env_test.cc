#include "src/obs/run_env.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/sys/fdio.h"
#include "src/sys/temp.h"

namespace lmb {
namespace {

// Builds a stub sysfs/procfs tree under a temp dir so capture reads known
// values instead of whatever this machine happens to run with.
struct StubTree {
  sys::TempDir dir;
  std::string sys_root;
  std::string proc_root;

  StubTree() {
    sys_root = dir.file("sys");
    proc_root = dir.file("proc");
    std::filesystem::create_directories(cpu_dir() + "/cpu0/cpufreq");
    std::filesystem::create_directories(cpu_dir() + "/cpu1/cpufreq");
    std::filesystem::create_directories(cpu_dir() + "/intel_pstate");
    std::filesystem::create_directories(cpu_dir() + "/smt");
    std::filesystem::create_directories(proc_root + "/sys/kernel");
    put("sys/devices/system/cpu/online", "0-1");
  }

  std::string cpu_dir() const { return sys_root + "/devices/system/cpu"; }

  void put(const std::string& rel, const std::string& content) {
    std::string path = dir.file(rel);
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    sys::write_file(path, content + "\n");
  }
};

TEST(RunEnvTest, CapturesStubSysfsTree) {
  StubTree stub;
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/intel_pstate/no_turbo", "1");
  stub.put("sys/devices/system/cpu/smt/active", "0");
  stub.put("proc/sys/kernel/randomize_va_space", "2");
  stub.put("proc/loadavg", "0.42 0.33 0.21 1/345 6789");

  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.governor, "performance");
  EXPECT_EQ(env.turbo, "off");  // no_turbo=1 means turbo disabled
  EXPECT_EQ(env.smt, "off");
  EXPECT_EQ(env.aslr, "2");
  EXPECT_EQ(env.loadavg1, "0.42");
  // Host facts still come from the real system.
  EXPECT_FALSE(env.os.empty());
  EXPECT_FALSE(env.cpu_count.empty());
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.empty());
  // Quiet stub: performance governor, turbo off, tiny load — no warnings.
  EXPECT_TRUE(env.warnings.empty());
}

TEST(RunEnvTest, MixedGovernorsAndBoostTurbo) {
  StubTree stub;
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "powersave");
  stub.put("sys/devices/system/cpu/cpufreq/boost", "1");  // acpi-cpufreq style

  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.governor, "mixed(performance,powersave)");
  EXPECT_EQ(env.turbo, "on");
  EXPECT_EQ(env.smt, "unknown");
  EXPECT_EQ(env.aslr, "unknown");
}

TEST(RunEnvTest, EmptyTreeCapturesUnknownsWithoutThrowing) {
  sys::TempDir dir;
  obs::RunEnvironment env =
      obs::capture_run_environment(dir.file("nosys"), dir.file("noproc"));
  EXPECT_EQ(env.governor, "unknown");
  EXPECT_EQ(env.turbo, "unknown");
  EXPECT_EQ(env.smt, "unknown");
  EXPECT_EQ(env.aslr, "unknown");
  EXPECT_TRUE(env.loadavg1.empty());
}

TEST(RunEnvTest, CmdlineIsolationParamsAreCaptured) {
  StubTree stub;
  stub.put("proc/cmdline",
           "BOOT_IMAGE=/vmlinuz root=/dev/sda1 isolcpus=2-3 nohz_full=2-3 quiet");
  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.isolcpus, "2-3");
  EXPECT_EQ(env.nohz_full, "2-3");
  EXPECT_EQ(env.rcu_nocbs, "none");  // present cmdline, absent parameter
  // Partial isolation: no "no core isolation" warning.
  for (const std::string& w : env.warnings) {
    EXPECT_EQ(w.find("core isolation"), std::string::npos) << w;
  }
}

TEST(RunEnvTest, CmdlineWithoutIsolationWarnsOnce) {
  StubTree stub;
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/intel_pstate/no_turbo", "1");
  stub.put("proc/cmdline", "BOOT_IMAGE=/vmlinuz root=/dev/sda1 quiet");
  stub.put("proc/loadavg", "0.01 0.01 0.01 1/100 42");
  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.isolcpus, "none");
  EXPECT_EQ(env.nohz_full, "none");
  EXPECT_EQ(env.rcu_nocbs, "none");
  ASSERT_EQ(env.warnings.size(), 1u);
  EXPECT_NE(env.warnings[0].find("core isolation"), std::string::npos);
}

TEST(RunEnvTest, UnreadableCmdlineIsUnknownNotWarned) {
  StubTree stub;  // no proc/cmdline at all
  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.isolcpus, "unknown");
  EXPECT_EQ(env.nohz_full, "unknown");
  EXPECT_EQ(env.rcu_nocbs, "unknown");
  for (const std::string& w : env.warnings) {
    EXPECT_EQ(w.find("core isolation"), std::string::npos) << w;
  }
}

TEST(RunEnvTest, LiveFieldsAreReadOnEveryCapture) {
  StubTree stub;
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "performance");
  stub.put("proc/loadavg", "0.10 0.10 0.10 1/100 42");
  stub.put("proc/cmdline", "root=/dev/sda1 isolcpus=2-3");
  obs::RunEnvironment first = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(first.governor, "performance");
  EXPECT_EQ(first.loadavg1, "0.10");
  EXPECT_EQ(first.isolcpus, "2-3");

  // The same tree, changed between two captures in one process.
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "powersave");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "powersave");
  stub.put("proc/loadavg", "3.50 1.00 0.50 2/100 43");
  stub.put("proc/cmdline", "root=/dev/sda1 nohz_full=1");
  obs::RunEnvironment second = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(second.governor, "powersave");
  EXPECT_EQ(second.loadavg1, "3.50");
  EXPECT_EQ(second.isolcpus, "none");
  EXPECT_EQ(second.nohz_full, "1");
}

TEST(RunEnvTest, GovernorScanFollowsTheOnlineList) {
  StubTree stub;
  stub.put("sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "performance");
  stub.put("sys/devices/system/cpu/cpu1/cpufreq/scaling_governor", "powersave");
  stub.put("sys/devices/system/cpu/online", "0");  // cpu1 went offline
  obs::RunEnvironment env = obs::capture_run_environment(stub.sys_root, stub.proc_root);
  EXPECT_EQ(env.governor, "performance");
}

TEST(RunEnvTest, GivenHostFactsAreUsedAsIs) {
  SystemInfo info = query_system_info();
  info.hostname = "given-host";
  info.cpu_model = "";
  obs::RunEnvironment env = obs::capture_run_environment(info);
  EXPECT_EQ(env.hostname, "given-host");
  EXPECT_EQ(env.cpu_model, "unknown");
  EXPECT_EQ(env.cpu_count, std::to_string(info.cpu_count));
}

TEST(RunEnvTest, WarningsFlagNoisyConfigurations) {
  obs::RunEnvironment env;
  env.governor = "powersave";
  env.turbo = "on";
  env.cpu_count = "4";
  env.loadavg1 = "3.5";  // > max(1, 0.5*4)
  std::vector<std::string> warnings = obs::environment_warnings(env);
  ASSERT_EQ(warnings.size(), 3u);
  EXPECT_NE(warnings[0].find("powersave"), std::string::npos);
  EXPECT_NE(warnings[1].find("turbo"), std::string::npos);
  EXPECT_NE(warnings[2].find("load average"), std::string::npos);
}

TEST(RunEnvTest, QuietConfigurationGetsNoWarnings) {
  obs::RunEnvironment env;
  env.governor = "performance";
  env.turbo = "off";
  env.cpu_count = "8";
  env.loadavg1 = "0.5";
  EXPECT_TRUE(obs::environment_warnings(env).empty());
  // Unknown facts are not warned about either (restricted containers).
  env.governor = "unknown";
  env.turbo = "unknown";
  EXPECT_TRUE(obs::environment_warnings(env).empty());
}

TEST(RunEnvTest, FieldsRoundTripThroughSetter) {
  obs::RunEnvironment env;
  env.governor = "performance";
  env.kernel = "6.1.0";
  env.hostname = "host1";

  obs::RunEnvironment rebuilt;
  for (const obs::EnvField& f : obs::environment_fields(env)) {
    obs::set_environment_field(rebuilt, f.name, f.value);
  }
  for (const obs::EnvField& f : obs::environment_fields(rebuilt)) {
    bool found = false;
    for (const obs::EnvField& orig : obs::environment_fields(env)) {
      if (orig.name == f.name) {
        EXPECT_EQ(orig.value, f.value) << f.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << f.name;
  }
  // Unknown names from newer producers are ignored, not fatal.
  obs::set_environment_field(rebuilt, "future_field", "x");
}

TEST(RunEnvTest, DiffFlagsSignificantFields) {
  obs::RunEnvironment a;
  a.governor = "performance";
  a.hostname = "host1";
  a.loadavg1 = "0.1";
  obs::RunEnvironment b = a;
  b.governor = "powersave";  // significant
  b.hostname = "host2";      // informational
  b.loadavg1 = "2.0";        // informational

  std::vector<obs::EnvDelta> deltas = obs::diff_environments(a, b);
  ASSERT_EQ(deltas.size(), 3u);
  int significant = 0;
  for (const obs::EnvDelta& d : deltas) {
    if (d.field == "governor") {
      EXPECT_TRUE(d.significant);
      EXPECT_EQ(d.baseline, "performance");
      EXPECT_EQ(d.current, "powersave");
    }
    if (d.field == "hostname" || d.field == "loadavg1") {
      EXPECT_FALSE(d.significant);
    }
    significant += d.significant ? 1 : 0;
  }
  EXPECT_EQ(significant, 1);
  EXPECT_TRUE(obs::diff_environments(a, a).empty());
}

TEST(RunEnvTest, EmptyDetectsBlankSnapshot) {
  obs::RunEnvironment env;
  EXPECT_TRUE(env.empty());
  env.kernel = "6.1";
  EXPECT_FALSE(env.empty());
}

}  // namespace
}  // namespace lmb
