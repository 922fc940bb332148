// Parallel, cache-blocked construction of pairwise distance matrices.
//
// Before any distances are computed, the builder runs the feature-
// precompute pipeline (distance/features.h): every query is printed, lexed
// and featurized exactly once — in parallel on the pool — and the measure
// prepares the log from the resulting FeatureCache, so the tiles read it by
// index instead of re-lexing SQL per pair and every error surfaces before
// the first tile. That turns the matrix build from O(n²·lex) into
// O(n·lex + n²·merge).
//
// The unit of work is a range of triangle rows: ComputeRows fills rows
// [first, end), row r holding d(c, r) for every c < r. A cold build is rows
// [0, n), an incremental build rows [r, n) and a shard (engine/shard.h)
// rows [a, b). The rows are cut into `block` x `block` squares of the lower
// triangle; each square is one pool task that writes both halves of its
// cells, so no two tasks ever write the same cell. Every cell carries the
// exact value the serial DistanceMatrix::Compute and the per-pair reference
// Distance(q1, q2) produce (preparation preserves the distances bit for
// bit), so the parallel result is bit-identical to the serial one — a
// tested guarantee, not a best-effort property.

#ifndef DPE_ENGINE_MATRIX_BUILDER_H_
#define DPE_ENGINE_MATRIX_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "distance/features.h"
#include "distance/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpe::engine {

struct MatrixBuilderOptions {
  /// Tile edge (queries per block) of the blocked schedule. Must be >= 1;
  /// ComputeRows returns InvalidArgument on a zero block instead of
  /// dividing by it.
  size_t block = 64;

  /// Where build counters land (per-measure distance calls, resolved
  /// kernel-backend gauge, stage-latency histograms). Null means the
  /// process default registry — instrumentation is always on, and cheap:
  /// one counter add per tile, not per pair.
  obs::MetricsRegistry* metrics = nullptr;

  /// Span capture for chrome://tracing. Null (or a disabled buffer) skips
  /// span recording entirely; stage timings still reach `metrics`.
  obs::TraceBuffer* trace = nullptr;

  /// Optional live progress conduit: when set, the builder adds each
  /// completed tile's cell count here (relaxed, one add per tile — same
  /// cadence as the distance.calls counter). Lets a long build be watched
  /// from another thread (the shard lease table reports it) without
  /// touching the metrics registry per tile. Not owned; must outlive the
  /// build.
  std::atomic<uint64_t>* progress_cells = nullptr;
};

class MatrixBuilder {
 public:
  /// `pool` may be null: everything then runs serially on the caller.
  explicit MatrixBuilder(common::ThreadPool* pool,
                         MatrixBuilderOptions options = {})
      : pool_(pool), options_(options) {}

  /// Full pairwise matrix over `queries`: ComputeRows over rows [0, n) of
  /// a fresh n x n matrix.
  Result<distance::DistanceMatrix> Build(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context) const;

  /// Fills triangle rows [first, end) of `m`: every cell (c, r) with c < r
  /// and first <= r < end becomes d(queries[c], queries[r]), written to both
  /// halves; every other cell keeps its value. Queries [0, end) are
  /// featurized and prepared on every call, however few rows are asked
  /// for: an incremental result build re-executes the whole prefix.
  /// OutOfRange unless first <= end <= n and end <= m->size().
  Status ComputeRows(const std::vector<sql::SelectQuery>& queries,
                     const distance::QueryDistanceMeasure& measure,
                     const distance::MeasureContext& context, size_t first,
                     size_t end, distance::DistanceMatrix* m) const;

 private:
  /// The registry build counters land in: options_.metrics or the process
  /// default.
  obs::MetricsRegistry& Metrics() const;

  /// Extracts raw features of queries [0, end) in parallel (phase 1 of
  /// distance/features.h), then interns serially (phase 2).
  Result<distance::FeatureCache> PrecomputeFeatures(
      const std::vector<sql::SelectQuery>& queries, size_t end) const;

  /// Featurizes queries [0, end) into `features` and prepares them under
  /// `measure`. The prepared log may view `features`, which must outlive
  /// it.
  Result<std::unique_ptr<distance::PreparedLog>> PreparePrefix(
      const std::vector<sql::SelectQuery>& queries, size_t end,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context,
      distance::FeatureCache* features) const;

  common::ThreadPool* pool_;  ///< not owned
  MatrixBuilderOptions options_;
};

}  // namespace dpe::engine

#endif  // DPE_ENGINE_MATRIX_BUILDER_H_
