// Shared declarations of the owner->provider benchmark (README.md).
//
// The benchmark drives the public APIs of every layer from the outside. All
// timing happens here, with std::chrono::steady_clock; the engine's own
// tracing stays off. A traced run additionally records Span objects into a
// Tracer, which exports them as Chrome-trace JSON and a self-time table.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/log_encryptor.h"
#include "crypto/keys.h"
#include "distance/matrix.h"
#include "engine/engine.h"
#include "workload/scenarios.h"

namespace perfbench {

using dpe::distance::DistanceMatrix;

// -- Spans --------------------------------------------------------------------

/// One benchmark-side span: a call into `layer` (or "bench" for the
/// benchmark's own glue), with the span that was open when it began.
struct SpanRecord {
  std::string name;
  std::string layer;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< -1 = root
};

/// Single-threaded span store: the benchmark is one closed-loop client, so
/// the open spans form a stack.
class Tracer {
 public:
  int Open(std::string name, std::string layer);
  void Close(int id);

  /// chrome://tracing "X" events, with the parent id in args.
  std::string ChromeJson() const;
  /// Per-layer self time (span duration minus the part its children
  /// cover), in ms. Glue spans carry layer "bench": their self time is
  /// the time no layer call accounts for.
  std::map<std::string, double> SelfTimesMs() const;
  /// Wall time covered by root spans, in ms.
  double RootWallMs() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Times one call. Always measures; records into `tracer` when non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, std::string name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Elapsed ms; the first call closes the span.
  double End();

 private:
  Tracer* tracer_;
  int id_ = -1;
  std::chrono::steady_clock::time_point start_;
  double ms_ = -1.0;
};

double Median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

// -- Correctness --------------------------------------------------------------

/// Counts checked operations and mismatches; every mismatch is printed.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  /// Counts a call that failed with a Status.
  void Fail(const std::string& what, const dpe::Status& status);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Bit-for-bit equality of two matrices (sizes and every cell's bits).
bool SameBits(const DistanceMatrix& a, const DistanceMatrix& b);
/// The leading n x n block of `m`.
DistanceMatrix Leading(const DistanceMatrix& m, size_t n);

/// Every miner output the benchmark compares against plaintext.
struct MinerOutputs {
  dpe::mining::KMedoidsResult kmedoids;
  dpe::mining::DbscanResult dbscan;
  dpe::mining::Dendrogram dendrogram;
  dpe::engine::OutlierKnnReport outliers;
};
/// Names the first differing part, or "" when equal.
std::string CompareMiners(const MinerOutputs& expected,
                          const MinerOutputs& got);

// -- Configuration ------------------------------------------------------------

/// The fixed load shape: one closed-loop client, a 2-thread engine pool.
inline constexpr size_t kThreads = 2;

/// Every EngineOptions field the benchmark depends on, set explicitly.
dpe::engine::EngineOptions PinnedOptions(bool compaction);

/// Miner parameters shared by the workloads and their references.
dpe::mining::KMedoidsOptions KMedoidsParams();
dpe::mining::DbscanOptions DbscanParams();
dpe::mining::OutlierOptions OutlierParams();
inline constexpr size_t kOutlierNeighbors = 3;

/// The four miners through the engine facade (what the provider runs).
dpe::Result<MinerOutputs> RunMiners(dpe::engine::Engine& engine,
                                    const std::string& measure, Tracer* tracer);

/// Removes a directory tree, ignoring errors.
void RemoveTree(const std::string& dir);
/// Recursively copies `from` to a fresh `to`.
dpe::Status CopyTree(const std::string& from, const std::string& to);
/// Sum of the sizes of the regular files under `dir`.
uint64_t TreeBytes(const std::string& dir);

// -- Workloads ----------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       ///< small sizes for the benchmark's own test
  std::string workdir;     ///< scratch directory inside the checkout
  std::string out_dir;     ///< where a traced run writes its trace files
};

inline constexpr std::array<dpe::core::MeasureKind, 4> kAllKinds = {
    dpe::core::MeasureKind::kToken, dpe::core::MeasureKind::kStructure,
    dpe::core::MeasureKind::kResult, dpe::core::MeasureKind::kAccessArea};

/// Input sizes of one workload. The log holds n_total queries; each phase
/// works on a prefix of it.
struct Sizes {
  bool sky = false;  ///< SkyServer scenario instead of the web shop
  size_t rows = 60;
  size_t n_total = 0;
  std::vector<dpe::core::MeasureKind> batch_kinds;
  size_t batch_n = 0;          ///< batch phase: queries [0, batch_n)
  size_t stream_base = 0;      ///< stream phase: warm engine over [0, base)
  size_t stream_arrivals = 0;  ///< then arrivals [base, base + arrivals)
  size_t restart_n = 0;        ///< restart: checkpoint of [0, N)
  size_t restart_m = 0;        ///< + journal of [N, N + M)
  size_t restart_k = 0;        ///< + K adds after the restart
};

Sizes SizesFor(const std::string& workload, bool tiny);

/// Everything set-up prepares. Held by pointer and never moved: the token
/// encryptor points into the scenario and the key manager.
struct Setup {
  Sizes sz;
  dpe::workload::Scenario scenario;
  std::string master_key;
  std::vector<dpe::sql::SelectQuery> batch_log;  ///< plaintext [0, batch_n)
  std::optional<dpe::crypto::KeyManager> keys;
  std::optional<dpe::core::LogEncryptor> token_enc;
  /// Token ciphertexts of the full log.
  std::vector<dpe::sql::SelectQuery> enc_log;
  DistanceMatrix ref_token;  ///< plaintext token matrix, full log
  std::map<dpe::core::MeasureKind, DistanceMatrix> batch_ref;
  std::map<dpe::core::MeasureKind, MinerOutputs> batch_miners;
  std::string restart_long;  ///< prepared checkpoint templates
  std::string restart_folded;
  std::string dir;           ///< this set-up's scratch directory
};

/// The owner's LogEncryptor options (fixed Paillier/OPE sizes and rng).
dpe::core::LogEncryptor::Options OwnerOptions();
std::string Name(dpe::core::MeasureKind kind);
std::vector<dpe::sql::SelectQuery> Prefix(
    const std::vector<dpe::sql::SelectQuery>& log, size_t n);
/// Provider-side measure context over one scheme's artifacts.
dpe::distance::MeasureContext ProviderContext(
    const dpe::core::EncryptionArtifacts& art,
    const dpe::db::DomainRegistry& empty_domains);

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunOutput {
  MetricMap metrics;
  Checker checker;
  std::vector<std::string> notes;  ///< human-readable lines
};

/// The end-to-end (untraced) run of one workload.
dpe::Status RunWorkload(const RunConfig& config, RunOutput& out);
/// The traced run: untraced and traced passes for the overhead ratio, then
/// the per-layer probes.
dpe::Status RunTraced(const RunConfig& config, RunOutput& out);

/// Per-layer probes over a set-up's inputs: direct calls into each layer,
/// timed from outside, plus the engine-facade calls they sit under.
dpe::Status LayerPass(const Setup& setup, const std::string& dir,
                      Tracer* tracer, RunOutput& out);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
