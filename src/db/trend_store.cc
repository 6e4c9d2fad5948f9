#include "src/db/trend_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "src/db/baseline_store.h"
#include "src/obs/run_env.h"
#include "src/report/json.h"
#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace lmb::db {

namespace {

namespace fs = std::filesystem;

constexpr const char* kRunLog = "runs.jsonl";
constexpr const char* kSuffix = ".jsonl";

// Splits a JSONL file into lines, parsing each; lines that fail to parse
// (a torn tail from a crashed writer, editor damage) are skipped — history
// degrades by a point instead of becoming unreadable.
std::vector<report::JsonValue> read_jsonl(const std::string& path) {
  std::vector<report::JsonValue> out;
  std::string text;
  try {
    text = sys::read_file(path);
  } catch (const std::exception&) {
    return out;  // missing shard file == empty history
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      out.push_back(report::parse_json(line));
    } catch (const std::exception&) {
      // Skipped: unparseable line.
    }
  }
  return out;
}

long seq_of(const report::JsonValue& line) {
  const report::JsonValue* seq = report::find(line.object(), "seq");
  if (seq == nullptr) {
    throw std::invalid_argument("trend line without seq");
  }
  return static_cast<long>(seq->number());
}

// Bytes of a run log's end read at a time when looking for its last line;
// a run-log line with its provenance block is about 0.5 KiB.
constexpr size_t kTailBlock = 4096;

// Sequence number of the run log's last valid line, 0 when it has none.
// append, compact and import_baselines all keep the log sequence-ascending,
// so that line holds the maximum.  The log is read backwards from its end,
// doubling the window until a valid line turns up, so an append costs the
// same however much history the shard holds; torn or damaged lines at the
// end are walked past.
long last_seq(const std::string& path) {
  sys::UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) {
    return 0;  // no run log yet == empty history
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    sys::throw_errno("fstat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  size_t scanned = 0;  // bytes at the end already known to hold no valid line
  for (size_t window = kTailBlock;; window *= 2) {
    std::string text(std::min(size, window), '\0');
    const ssize_t got = ::pread(fd.get(), text.data(), text.size(),
                                static_cast<off_t>(size - text.size()));
    if (got != static_cast<ssize_t>(text.size())) {
      sys::throw_errno("pread " + path);
    }
    const bool whole = text.size() == size;
    size_t line_end = text.size() - scanned;
    for (;;) {
      const size_t nl = line_end == 0 ? std::string::npos : text.rfind('\n', line_end - 1);
      if (nl == std::string::npos && !whole) {
        break;  // this line may begin before the window
      }
      const size_t begin = nl == std::string::npos ? 0 : nl + 1;
      const std::string line = text.substr(begin, line_end - begin);
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        try {
          return seq_of(report::parse_json(line));
        } catch (const std::exception&) {
          // Torn or damaged: keep walking back.
        }
      }
      if (nl == std::string::npos) {
        return 0;  // the whole log holds no valid line
      }
      line_end = nl;
    }
    scanned = text.size() - line_end;
  }
}

}  // namespace

TrendStore::TrendStore(std::string dir) : dir_(std::move(dir)) {}

std::string TrendStore::shard_name(const std::string& system) {
  std::string out = system.empty() ? std::string("unknown") : system;
  for (char& c : out) {
    bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '.' || c == '_' || c == '-';
    if (!ok) {
      c = '-';
    }
  }
  return out;
}

long TrendStore::append(const report::ResultBatch& batch) {
  std::string shard = shard_name(batch.system);
  fs::path shard_dir = fs::path(dir_) / shard;
  std::error_code ec;
  fs::create_directories(shard_dir, ec);
  if (ec) {
    throw std::runtime_error("trend store: cannot create " + shard_dir.string() + ": " +
                             ec.message());
  }

  // A torn tail parses as nothing and does not advance the counter.
  const long seq = last_seq((shard_dir / kRunLog).string()) + 1;

  int recorded = 0;
  for (const RunResult& r : batch.results) {
    if (!r.ok() || r.metrics.empty()) {
      continue;
    }
    std::string line = "{\"seq\":" + std::to_string(seq) +
                       ",\"wall_ms\":" + report::json_double(r.wall_ms) + ",\"metrics\":[";
    bool first = true;
    for (const Metric& m : r.metrics) {
      if (!first) {
        line += ',';
      }
      first = false;
      line += "{\"key\":" + report::json_quote(m.key) +
              ",\"value\":" + report::json_double(m.value) +
              ",\"unit\":" + report::json_quote(m.unit) + "}";
    }
    line += "]}\n";
    sys::append_line((shard_dir / (shard_name(r.name) + kSuffix)).string(), line);
    ++recorded;
  }

  // Run log last: a run is only visible in `runs` once its benchmark
  // lines are on disk.
  double wall_ms =
      batch.timing.has_value() ? batch.timing->total_wall_ms : 0.0;
  std::string line = "{\"seq\":" + std::to_string(seq) +
                     ",\"system\":" + report::json_quote(batch.system) +
                     ",\"total_wall_ms\":" + report::json_double(wall_ms) +
                     ",\"results\":" + std::to_string(recorded) + ",\"env\":{";
  if (batch.environment.has_value()) {
    bool first = true;
    for (const obs::EnvField& field : obs::environment_fields(*batch.environment)) {
      if (field.value.empty()) {
        continue;
      }
      if (!first) {
        line += ',';
      }
      first = false;
      line += report::json_quote(field.name) + ":" + report::json_quote(field.value);
    }
  }
  line += "}}\n";
  sys::append_line((shard_dir / kRunLog).string(), line);
  return seq;
}

std::vector<std::string> TrendStore::hosts() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_directory()) {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> TrendStore::benches(const std::string& host) const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(fs::path(dir_) / host, ec)) {
    std::string name = entry.path().filename().string();
    if (name == kRunLog || entry.path().extension() != kSuffix) {
      continue;
    }
    out.push_back(entry.path().stem().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TrendRun> TrendStore::runs(const std::string& host) const {
  std::vector<TrendRun> out;
  for (const report::JsonValue& line : read_jsonl((fs::path(dir_) / host / kRunLog).string())) {
    try {
      const report::JsonObject& obj = line.object();
      TrendRun run;
      run.seq = seq_of(line);
      if (const report::JsonValue* v = report::find(obj, "system")) {
        run.system = v->str();
      }
      if (const report::JsonValue* v = report::find(obj, "total_wall_ms")) {
        run.total_wall_ms = report::number_or_nan(*v);
      }
      if (const report::JsonValue* v = report::find(obj, "results")) {
        run.results = static_cast<int>(v->number());
      }
      if (const report::JsonValue* v = report::find(obj, "env")) {
        for (const auto& [name, value] : v->object()) {
          run.env[name] = value.str();
        }
      }
      out.push_back(std::move(run));
    } catch (const std::exception&) {
      // Skipped: malformed run record.
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TrendRun& a, const TrendRun& b) { return a.seq < b.seq; });
  return out;
}

std::vector<TrendSeries> TrendStore::series(const std::string& host,
                                            const std::string& bench) const {
  std::map<std::string, TrendSeries> by_key;
  std::string path = (fs::path(dir_) / host / (shard_name(bench) + kSuffix)).string();
  for (const report::JsonValue& line : read_jsonl(path)) {
    try {
      long seq = seq_of(line);
      const report::JsonValue* metrics = report::find(line.object(), "metrics");
      if (metrics == nullptr) {
        continue;
      }
      for (const report::JsonValue& metric : metrics->array()) {
        const report::JsonObject& obj = metric.object();
        const report::JsonValue* key = report::find(obj, "key");
        const report::JsonValue* value = report::find(obj, "value");
        if (key == nullptr || value == nullptr) {
          continue;
        }
        double v = report::number_or_nan(*value);
        if (!std::isfinite(v)) {
          continue;  // an explicitly-missing measurement is not a point
        }
        TrendSeries& series = by_key[key->str()];
        if (series.key.empty()) {
          series.host = host;
          series.bench = bench;
          series.key = key->str();
        }
        if (const report::JsonValue* unit = report::find(obj, "unit")) {
          series.unit = unit->str();
        }
        series.points.push_back({seq, v});
      }
    } catch (const std::exception&) {
      // Skipped: malformed benchmark record.
    }
  }
  std::vector<TrendSeries> out;
  out.reserve(by_key.size());
  for (auto& [key, series] : by_key) {
    std::sort(series.points.begin(), series.points.end(),
              [](const TrendPoint& a, const TrendPoint& b) { return a.seq < b.seq; });
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<TrendSeries> TrendStore::all_series(const std::string& host) const {
  std::vector<TrendSeries> out;
  for (const std::string& bench : benches(host)) {
    std::vector<TrendSeries> per_bench = series(host, bench);
    out.insert(out.end(), std::make_move_iterator(per_bench.begin()),
               std::make_move_iterator(per_bench.end()));
  }
  return out;
}

void TrendStore::compact(size_t keep) {
  for (const std::string& host : hosts()) {
    fs::path shard_dir = fs::path(dir_) / host;
    std::vector<std::string> files;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(shard_dir, ec)) {
      if (entry.path().extension() == kSuffix) {
        files.push_back(entry.path().string());
      }
    }
    for (const std::string& path : files) {
      std::vector<report::JsonValue> lines = read_jsonl(path);
      // Newest-by-sequence wins; unparseable lines were already dropped.
      std::stable_sort(lines.begin(), lines.end(),
                       [](const report::JsonValue& a, const report::JsonValue& b) {
                         long sa = 0, sb = 0;
                         try {
                           sa = seq_of(a);
                         } catch (const std::exception&) {
                         }
                         try {
                           sb = seq_of(b);
                         } catch (const std::exception&) {
                         }
                         return sa < sb;
                       });
      if (lines.size() > keep) {
        lines.erase(lines.begin(), lines.end() - static_cast<long>(keep));
      }
      std::string text;
      for (const report::JsonValue& line : lines) {
        text += report::to_text(line);
        text += '\n';
      }
      // Rewrite via rename so a crash mid-compaction cannot lose the shard.
      std::string tmp = path + ".tmp";
      sys::write_file(tmp, text);
      fs::rename(tmp, path);
    }
  }
}

size_t TrendStore::import_baselines(const std::string& baseline_dir) {
  size_t imported = 0;
  for (const std::string& path : BaselineStore(baseline_dir).list()) {
    try {
      append(BaselineStore::load(path));
      ++imported;
    } catch (const std::exception&) {
      // Skipped: corrupt baseline entry.
    }
  }
  return imported;
}

}  // namespace lmb::db
