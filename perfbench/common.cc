// Spans, statistics, correctness checks and the pinned engine configuration.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string JsonEscaped(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

// -- Spans --------------------------------------------------------------------

int Tracer::Open(std::string name, std::string layer) {
  SpanRecord r;
  r.name = std::move(name);
  r.layer = std::move(layer);
  r.id = static_cast<int>(spans_.size());
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ns = NowNs();
  spans_.push_back(std::move(r));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::Close(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (RAII); tolerate an out-of-order End().
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

std::string Tracer::ChromeJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << JsonEscaped(s.name)
       << "\",\"cat\":\"" << JsonEscaped(s.layer) << "\",\"ph\":\"X\","
       << buf << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::map<std::string, double> Tracer::SelfTimesMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += self[i];
  }
  return out;
}

double Tracer::RootWallMs() const {
  double total = 0;
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return total;
}

Span::Span(Tracer* tracer, const char* layer, std::string name)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Open(std::move(name), layer);
  start_ = std::chrono::steady_clock::now();
}

double Span::End() {
  if (ms_ < 0) {
    ms_ = std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start_)
              .count();
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  return ms_;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

// -- Correctness --------------------------------------------------------------

void Checker::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("MISMATCH: %s\n", what.c_str());
  }
}

void Checker::Fail(const std::string& what, const dpe::Status& status) {
  ++attempted_;
  ++failed_;
  std::printf("FAILED: %s: %s\n", what.c_str(), status.ToString().c_str());
}

bool SameBits(const DistanceMatrix& a, const DistanceMatrix& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      if (std::bit_cast<uint64_t>(a.at(i, j)) !=
          std::bit_cast<uint64_t>(b.at(i, j))) {
        return false;
      }
    }
  }
  return true;
}

DistanceMatrix Leading(const DistanceMatrix& m, size_t n) {
  DistanceMatrix out(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) out.set(i, j, m.at(i, j));
  }
  return out;
}

std::string CompareMiners(const MinerOutputs& e, const MinerOutputs& g) {
  if (e.kmedoids.medoids != g.kmedoids.medoids ||
      e.kmedoids.labels != g.kmedoids.labels) {
    return "k-medoids medoids/labels";
  }
  if (e.dbscan.labels != g.dbscan.labels ||
      e.dbscan.cluster_count != g.dbscan.cluster_count) {
    return "DBSCAN labels";
  }
  const auto& em = e.dendrogram.merges;
  const auto& gm = g.dendrogram.merges;
  if (em.size() != gm.size()) return "dendrogram merge count";
  for (size_t i = 0; i < em.size(); ++i) {
    if (em[i].left != gm[i].left || em[i].right != gm[i].right ||
        std::bit_cast<uint64_t>(em[i].distance) !=
            std::bit_cast<uint64_t>(gm[i].distance)) {
      return "dendrogram merge " + std::to_string(i);
    }
  }
  if (e.outliers.outliers.outliers != g.outliers.outliers.outliers) {
    return "outlier set";
  }
  if (e.outliers.neighbors != g.outliers.neighbors) {
    return "outlier neighbour lists";
  }
  return "";
}

// -- Configuration ------------------------------------------------------------

dpe::engine::EngineOptions PinnedOptions(bool compaction) {
  dpe::engine::EngineOptions o;
  o.threads = kThreads;
  o.block = 64;
  o.kernel_backend = dpe::common::simd::DetectBackend();
  o.fsync_policy = dpe::store::FsyncPolicy::kOnCheckpoint;
  o.enable_cache = true;
  o.cache_max_bytes = 0;
  o.enable_compaction = compaction;
  o.compaction_trigger_bytes = size_t{1} << 20;
  o.scrub_on_load = false;
  o.tolerate_torn_journal = true;
  o.trace = false;
  o.metrics = nullptr;
  o.telemetry_port = -1;
  o.telemetry_push_url.clear();
  return o;
}

dpe::mining::KMedoidsOptions KMedoidsParams() {
  dpe::mining::KMedoidsOptions o;
  o.k = 4;
  return o;
}

dpe::mining::DbscanOptions DbscanParams() {
  dpe::mining::DbscanOptions o;
  o.epsilon = 0.4;
  o.min_points = 3;
  return o;
}

dpe::mining::OutlierOptions OutlierParams() {
  dpe::mining::OutlierOptions o;
  o.p = 0.9;
  o.d = 0.7;
  return o;
}

dpe::Result<MinerOutputs> RunMiners(dpe::engine::Engine& engine,
                                    const std::string& measure,
                                    Tracer* tracer) {
  MinerOutputs out;
  {
    Span s(tracer, "engine", "RunKMedoids." + measure);
    DPE_ASSIGN_OR_RETURN(out.kmedoids,
                         engine.RunKMedoids(measure, KMedoidsParams()));
  }
  {
    Span s(tracer, "engine", "RunDbscan." + measure);
    DPE_ASSIGN_OR_RETURN(out.dbscan, engine.RunDbscan(measure, DbscanParams()));
  }
  {
    Span s(tracer, "engine", "RunHierarchical." + measure);
    DPE_ASSIGN_OR_RETURN(out.dendrogram, engine.RunHierarchical(measure));
  }
  {
    Span s(tracer, "engine", "RunOutlierKnn." + measure);
    DPE_ASSIGN_OR_RETURN(
        out.outliers,
        engine.RunOutlierKnn(measure, OutlierParams(), kOutlierNeighbors));
  }
  return out;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

dpe::Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(fs::path(to).parent_path(), ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) {
    return dpe::Status::Internal("copy " + from + " -> " + to + ": " +
                                 ec.message());
  }
  return dpe::Status::OK();
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
