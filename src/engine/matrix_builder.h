// Parallel, cache-blocked construction of pairwise distance matrices.
//
// Before any distances are computed, the builder runs the feature-
// precompute pipeline (distance/features.h): every query is printed, lexed
// and featurized exactly once — in parallel on the pool — and the resulting
// FeatureCache is threaded through the MeasureContext so each measure's hot
// path consumes precomputed features instead of re-lexing SQL per pair.
// That turns the matrix build from O(n²·lex) into O(n·lex + n²·merge).
//
// The upper triangle is tiled into `block` x `block` blocks; each block is
// one pool task, so workers touch disjoint, contiguous stripes of the
// matrix (cache-friendly) and no two tasks ever write the same cell. Every
// cell carries the exact value the serial, un-featurized
// DistanceMatrix::Compute produces (featurization preserves the distances
// bit-for-bit), so the parallel result is bit-identical to the serial one —
// a tested guarantee, not a best-effort property.

#ifndef DPE_ENGINE_MATRIX_BUILDER_H_
#define DPE_ENGINE_MATRIX_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "distance/features.h"
#include "distance/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpe::engine {

struct MatrixBuilderOptions {
  /// Tile edge (queries per block) of the blocked schedule. Must be >= 1;
  /// every build entry point validates this and returns InvalidArgument on
  /// a zero block instead of dividing by it.
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

  /// Full pairwise matrix over `queries` (precomputes features, then calls
  /// measure.Prepare, then fills the tiles).
  Result<distance::DistanceMatrix> Build(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context) const;

  /// Builds only tiles [tile_begin, tile_end) of the deterministic
  /// TileSchedule (engine/shard.h) into an n x n matrix; cells outside the
  /// range stay zero. Only the queries those tiles touch are featurized and
  /// prepared. This is the shard worker's compute path — Build is the full
  /// range — so a k-shard build traverses exactly the tiles, in exactly the
  /// per-tile order, of the single-process build. OutOfRange if the tile
  /// range exceeds the schedule.
  Result<distance::DistanceMatrix> BuildTiles(
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context, size_t tile_begin,
      size_t tile_end) const;

  /// d(queries[i], queries[j]) for an explicit pair list — the distance
  /// cache's miss path. Returns one value per pair, in input order. Only
  /// the queries referenced by `pairs` are featurized.
  Result<std::vector<double>> ComputePairs(
      const std::vector<sql::SelectQuery>& queries,
      const std::vector<std::pair<size_t, size_t>>& pairs,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context) const;

 private:
  /// InvalidArgument unless the options are usable (block >= 1). Every
  /// public entry point calls this first — a zero block would otherwise
  /// divide by zero in the tile-count computation.
  Status ValidateOptions() const;

  /// The registry build counters land in: options_.metrics or the process
  /// default.
  obs::MetricsRegistry& Metrics() const;

  /// Extracts raw features of `selected` in parallel (phase 1 of
  /// distance/features.h), then interns serially (phase 2).
  Result<distance::FeatureCache> PrecomputeFeatures(
      const std::vector<const sql::SelectQuery*>& selected) const;

  /// Featurizes the queries flagged in `used` and runs measure.Prepare over
  /// them (over the full log when all are used, over a copied subset
  /// otherwise — measures memoize by canonical text, so preparing copies
  /// still makes Distance on the originals a hit). Returns the context to
  /// compute distances with; `features` must outlive it.
  Result<distance::MeasureContext> PrepareSelected(
      const std::vector<sql::SelectQuery>& queries,
      const std::vector<bool>& used,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context,
      distance::FeatureCache* features) const;

  common::ThreadPool* pool_;  ///< not owned
  MatrixBuilderOptions options_;
};

}  // namespace dpe::engine

#endif  // DPE_ENGINE_MATRIX_BUILDER_H_
