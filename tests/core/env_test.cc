#include "src/core/env.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

namespace lmb {
namespace {

TEST(EnvTest, QueryReturnsBasicFacts) {
  SystemInfo info = query_system_info();
  EXPECT_FALSE(info.os_name.empty());
  EXPECT_FALSE(info.machine.empty());
  EXPECT_GE(info.cpu_count, 1);
  EXPECT_GE(info.page_size, 4096);
  EXPECT_GT(info.phys_mem_bytes, 0);
}

TEST(EnvTest, CpuModelIsTheFirstModelNameLine) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string expected;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t start = line.find_first_not_of(" \t", line.find(':') + 1);
      expected = start == std::string::npos ? "" : line.substr(start);
      break;
    }
  }
  EXPECT_EQ(query_system_info().cpu_model, expected);
  EXPECT_EQ(query_system_info().cpu_model, expected);  // once read, kept
}

TEST(EnvTest, LabelCombinesOsAndMachine) {
  SystemInfo info;
  info.os_name = "Linux";
  info.machine = "x86_64";
  EXPECT_EQ(info.label(), "Linux/x86_64");
  SystemInfo empty;
  EXPECT_EQ(empty.label(), "unknown");
}

}  // namespace
}  // namespace lmb
