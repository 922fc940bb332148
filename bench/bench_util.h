// Shared setup helpers for the experiment binaries under bench/.

#ifndef DPE_BENCH_BENCH_UTIL_H_
#define DPE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/dpe.h"
#include "core/log_encryptor.h"
#include "workload/scenarios.h"

namespace dpe::bench {

inline workload::Scenario MakeShop(uint64_t seed, size_t rows, size_t log_size) {
  workload::ScenarioOptions opt;
  opt.seed = seed;
  opt.rows_per_relation = rows;
  opt.log_size = log_size;
  auto s = workload::MakeShopScenario(opt);
  if (!s.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n", s.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(s).value();
}

inline workload::Scenario MakeSky(uint64_t seed, size_t rows, size_t log_size) {
  workload::ScenarioOptions opt;
  opt.seed = seed;
  opt.rows_per_relation = rows;
  opt.log_size = log_size;
  auto s = workload::MakeSkyServerScenario(opt);
  if (!s.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n", s.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(s).value();
}

inline core::LogEncryptor MakeEncryptor(core::MeasureKind kind,
                                        const crypto::KeyManager& keys,
                                        const workload::Scenario& s,
                                        int paillier_bits = 512) {
  core::LogEncryptor::Options options;
  options.paillier_bits = paillier_bits;
  options.ope_range_bits = 96;
  options.rng_seed = "bench-seed";
  auto enc = core::LogEncryptor::Create(core::CanonicalScheme(kind), keys,
                                        s.database, s.log, s.domains, options);
  if (!enc.ok()) {
    std::fprintf(stderr, "encryptor failed: %s\n",
                 enc.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(enc).value();
}

/// Wall-clock helper (milliseconds).
template <typename Fn>
double TimeMs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Directory BENCH_*.json artifacts land in, independent of the CWD the
/// bench was invoked from: DPE_BENCH_OUT_DIR if set, else the repository
/// root (found by walking up from the CWD to the first directory holding
/// both CMakeLists.txt and ROADMAP.md), else the CWD. Benches used to drop
/// artifacts wherever they were started — usually scattered under build/ —
/// which left the archived perf trajectory empty whenever CI and humans
/// disagreed about working directories.
inline std::string BenchOutputDir() {
  if (const char* env = std::getenv("DPE_BENCH_OUT_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  if (ec) return ".";
  while (true) {
    if (fs::exists(dir / "CMakeLists.txt", ec) &&
        fs::exists(dir / "ROADMAP.md", ec)) {
      return dir.string();
    }
    fs::path parent = dir.parent_path();
    if (parent.empty() || parent == dir) return ".";
    dir = std::move(parent);
  }
}

/// Machine-readable bench output: collects labeled metric samples and writes
/// them as `BENCH_<name>.json` at the repo root (see BenchOutputDir), so CI
/// can archive the perf trajectory across PRs instead of scraping stdout.
///
///   bench::JsonReport report("mining_scaling");
///   report.Add("build_ms", 12.5, {{"miner", "kmedoids"}, {"threads", "4"}});
///   ...
///   report.Write();  // -> <repo root>/BENCH_mining_scaling.json
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// One sample: a metric value plus string labels identifying the
  /// configuration it was measured under.
  void Add(const std::string& metric, double value,
           std::initializer_list<std::pair<std::string, std::string>> labels = {}) {
    Sample s;
    s.metric = metric;
    s.value = value;
    s.labels.assign(labels.begin(), labels.end());
    samples_.push_back(std::move(s));
  }

  /// Embeds an engine StatsReport (obs::StatsReport::ToJson(), or any JSON
  /// value) verbatim as the report's "engine_stats" field, so each bench
  /// artifact carries the engine's own counters and stage timings alongside
  /// the bench's measurements. Raw — not escaped; pass real JSON.
  void SetEngineStats(std::string json) { engine_stats_json_ = std::move(json); }

  /// Writes BENCH_<name>.json into BenchOutputDir(); returns false (with a
  /// stderr note) on I/O failure so benches can keep their human-readable
  /// output regardless.
  bool Write() const {
    return WriteTo(
        (std::filesystem::path(BenchOutputDir()) / ("BENCH_" + name_ + ".json"))
            .string());
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"samples\": [",
                 Escaped(name_).c_str());
    for (size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      std::fprintf(f, "%s\n    {\"metric\": \"%s\", \"value\": %.17g",
                   i == 0 ? "" : ",", Escaped(s.metric).c_str(), s.value);
      for (const auto& [key, value] : s.labels) {
        std::fprintf(f, ", \"%s\": \"%s\"", Escaped(key).c_str(),
                     Escaped(value).c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]");
    if (!engine_stats_json_.empty()) {
      std::fprintf(f, ",\n  \"engine_stats\": %s", engine_stats_json_.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("(json: %s)\n", path.c_str());
    return true;
  }

 private:
  struct Sample {
    std::string metric;
    double value = 0.0;
    std::vector<std::pair<std::string, std::string>> labels;
  };

  static std::string Escaped(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<Sample> samples_;
  std::string engine_stats_json_;  ///< raw JSON; empty = field omitted
};

#define DPE_BENCH_CHECK(expr)                                              \
  do {                                                                     \
    auto _r = (expr);                                                      \
    if (!_r.ok()) {                                                        \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,        \
                   _r.status().ToString().c_str());                        \
      std::exit(1);                                                        \
    }                                                                      \
  } while (false)

}  // namespace dpe::bench

#endif  // DPE_BENCH_BENCH_UTIL_H_
