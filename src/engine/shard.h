// Sharded distance-matrix builds: the distributed-execution seam of the
// engine.
//
// A *shard* is a contiguous range of triangle rows — the same unit of work
// MatrixBuilder::ComputeRows runs for a cold build (rows [0, n)) and an
// incremental one (rows [r, n)) — so a k-shard build is just a partition
// of rows [0, n):
//
//   ShardPlan      PlanShards(n, k) — cuts rows [0, n) into k contiguous
//                  ranges balanced by cell count (row r holds r cells),
//                  purely from (n, k): every participant derives the same
//                  plan with no coordination, whatever tile edge its
//                  builder uses.
//   ShardWorker    computes one range and exports it through the store
//                  codec as a checksummed shard file (manifest + the
//                  range's triangle rows as raw doubles) — the exchange
//                  format between processes or hosts.
//
// Leasing ranges to workers and merging their files is the shard driver's
// job (engine/driver.h). A merge copies each shard's rows into place, and
// every cell carries the value MatrixBuilder::Build computes, so the merged
// matrix is bit-identical to a single-process build — a tested guarantee
// for every built-in measure.

#ifndef DPE_ENGINE_SHARD_H_
#define DPE_ENGINE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "distance/measure.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/matrix_store.h"

namespace dpe::engine {

/// A contiguous range [begin, end) of triangle rows.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;

  bool operator==(const RowRange&) const = default;
};

/// A deterministic k-way partition of rows [0, n). Ranges are contiguous,
/// disjoint and cover [0, n) in shard-index order. A range may be empty
/// when there are more shards than rows worth cutting (row 0 holds no
/// cells, so with n = 1 and k = 2 the ranges are [0, 0) [0, 1)) — assign
/// hosts from the plan's actual ranges, not from shard indices.
struct ShardPlan {
  size_t n = 0;                  ///< queries in the full matrix
  std::vector<RowRange> ranges;  ///< one range per shard, in shard order

  size_t shard_count() const { return ranges.size(); }
};

/// Partitions rows [0, n) into `shard_count` contiguous ranges, balanced
/// by cell count: each range holds within one row (n - 1 cells) of
/// total / shard_count cells. Deterministic in its arguments (workers and
/// coordinator re-derive the identical plan independently).
/// InvalidArgument if shard_count == 0.
Result<ShardPlan> PlanShards(size_t n, size_t shard_count);

/// Computes one shard of a plan and exports it through the store codec —
/// the unit of work both the worker loop and the driver's self-finish run.
class ShardWorker {
 public:
  /// `pool` may be null: the shard's tiles then compute serially. The
  /// builder uses its default tile edge; the plan does not depend on it.
  /// `metrics` (null = process default registry) receives
  /// shard.cells_computed{matrix=...} and shard.exports; `trace` (optional)
  /// captures a "shard.run" span plus the builder's spans.
  explicit ShardWorker(common::ThreadPool* pool,
                       obs::MetricsRegistry* metrics = nullptr,
                       obs::TraceBuffer* trace = nullptr)
      : pool_(pool), metrics_(metrics), trace_(trace) {}

  /// Optional live progress conduit, forwarded to the builder: each
  /// completed tile's cell count is added here (relaxed) while Run is in
  /// flight, so a lease heartbeat on another thread can publish how far the
  /// shard has gotten. Not owned; must outlive Run.
  void set_progress_cells(std::atomic<uint64_t>* progress) {
    progress_cells_ = progress;
  }

  /// Computes rows plan.ranges[shard_index] = [a, b) of the pairwise
  /// matrix of `queries` under `measure` into a b-row matrix and writes
  /// rows [a, b) to `store` as shard file `matrix_name`-`shard_index`of`k`.
  /// Only queries [0, b) are featurized and prepared, so a shard's cost
  /// tracks its rows, not the whole log. Returns the manifest that was
  /// written.
  Result<store::ShardManifest> Run(
      const std::string& matrix_name,
      const std::vector<sql::SelectQuery>& queries,
      const distance::QueryDistanceMeasure& measure,
      const distance::MeasureContext& context, const ShardPlan& plan,
      size_t shard_index, store::MatrixStore& store) const;

 private:
  common::ThreadPool* pool_;       ///< not owned
  obs::MetricsRegistry* metrics_;  ///< not owned; null = default registry
  obs::TraceBuffer* trace_;        ///< not owned; may be null
  std::atomic<uint64_t>* progress_cells_ = nullptr;  ///< not owned; optional
};

}  // namespace dpe::engine

#endif  // DPE_ENGINE_SHARD_H_
