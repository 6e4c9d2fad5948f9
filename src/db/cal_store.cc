#include "src/db/cal_store.h"

#include <cstdint>
#include <filesystem>
#include <string>

#include "src/db/result_set.h"

namespace lmb::db {

namespace {

constexpr const char* kIterPrefix = "it:";
constexpr const char* kWallPrefix = "wall:";

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// The cache key embeds the min_interval after the final '@'
// (see CalibrationScope::next_key); recover it for the CalEntry.
Nanos min_interval_of(const std::string& cache_key) {
  size_t at = cache_key.rfind('@');
  if (at == std::string::npos || at + 1 >= cache_key.size()) {
    return 0;
  }
  try {
    return static_cast<Nanos>(std::stoll(cache_key.substr(at + 1)));
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace

size_t load_calibration_cache(const std::string& path, const std::string& host_sig,
                              CalibrationCache& cache) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return 0;  // missing file == cold cache, the common first-run case
  }
  ResultDatabase database;
  try {
    database = ResultDatabase::load(path);
  } catch (const std::exception&) {
    return 0;  // unreadable or malformed file == cold cache
  }
  const ResultSet* set = database.find(std::string(kCalSystemPrefix) + host_sig);
  if (set == nullptr) {
    return 0;  // never written, or written under a different host signature
  }
  size_t loaded = 0;
  for (const auto& [key, value] : set->metrics()) {
    if (starts_with(key, kIterPrefix)) {
      std::string cache_key = key.substr(std::string(kIterPrefix).size());
      Nanos min_interval = min_interval_of(cache_key);
      auto iterations = static_cast<std::uint64_t>(value);
      if (min_interval > 0 && iterations > 0) {
        cache.put(cache_key, CalEntry{iterations, min_interval});
        ++loaded;
      }
    } else if (starts_with(key, kWallPrefix)) {
      std::string bench = key.substr(std::string(kWallPrefix).size());
      if (!bench.empty() && value >= 0) {
        cache.record_wall_ms(bench, value);
        ++loaded;
      }
    }
  }
  return loaded;
}

void save_calibration_cache(const std::string& path, const std::string& host_sig,
                            const CalibrationCache& cache) {
  // Preserve measured result sets living in the same file, but drop every
  // calibration set — including ones under a stale host signature, which
  // would otherwise accumulate across kernel upgrades and never be read.
  ResultDatabase loaded;
  try {
    loaded = ResultDatabase::load(path);
  } catch (const std::exception&) {
    // Start fresh.
  }
  ResultDatabase database;
  for (const ResultSet* other : loaded.all()) {
    if (!starts_with(other->system(), kCalSystemPrefix)) {
      database.add(*other);
    }
  }
  ResultSet set(std::string(kCalSystemPrefix) + host_sig);
  for (const auto& [cache_key, entry] : cache.entries()) {
    set.set(std::string(kIterPrefix) + cache_key, static_cast<double>(entry.iterations));
  }
  for (const auto& [bench, ms] : cache.wall_ms()) {
    set.set(std::string(kWallPrefix) + bench, ms);
  }
  database.add(std::move(set));
  database.save(path);
}

}  // namespace lmb::db
