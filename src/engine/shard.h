// Sharded distance-matrix builds: the distributed-execution seam of the
// engine.
//
// The blocked MatrixBuilder already computes the upper triangle as a
// deterministic schedule of block x block tiles. A *shard* is a contiguous
// range of that schedule, so a k-shard build is just a partition of the
// tile list:
//
//   ShardPlan      PlanShards(n, block, k) — cuts the schedule into k
//                  contiguous tile ranges, balanced by cell count (diagonal
//                  tiles hold about half the cells of square ones), purely
//                  from (n, block, k): every participant derives the same
//                  plan with no coordination.
//   ShardWorker    computes one range and exports it through the store
//                  codec as a checksummed shard file (manifest + the cells
//                  the range owns) — the exchange format between processes
//                  or hosts.
//
// Leasing ranges to workers and merging their files is the shard driver's
// job (engine/driver.h). Because the plan, the tile schedule and the
// per-tile cell traversal are shared with MatrixBuilder (the builder
// iterates the same TileSchedule), the merged matrix is bit-identical to a
// single-process MatrixBuilder::Build — a tested guarantee for every
// built-in measure.

#ifndef DPE_ENGINE_SHARD_H_
#define DPE_ENGINE_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/tiles.h"
#include "distance/matrix.h"
#include "distance/measure.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/matrix_store.h"

namespace dpe::engine {

// The tile schedule itself lives in common/tiles.h so the store codec can
// derive sparse shard payload sizes from a manifest without depending on
// the engine layer; these aliases keep the engine-side spelling.
using common::ForEachTileCell;
using common::TileCellCount;
using common::TileCount;
using common::TileSchedule;

/// A contiguous range [begin, end) of tile indices in the schedule.
struct TileRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
  bool operator==(const TileRange&) const = default;
};

/// A deterministic k-way partition of the tile schedule. Shards are
/// contiguous, disjoint and cover [0, tile_count) in shard-index order.
/// Any shard may be empty when the schedule is coarser than the shard
/// count (a tile straddling a cut boundary lands in the later shard, so
/// with one big tile and k = 4 the ranges are [0,0) [0,0) [0,0) [0,1)) —
/// assign hosts from the plan's actual ranges, not from shard indices.
struct ShardPlan {
  size_t n = 0;           ///< queries in the full matrix
  size_t block = 0;       ///< tile edge of the schedule
  size_t tile_count = 0;  ///< TileCount(n, block)
  std::vector<TileRange> ranges;  ///< one range per shard, in shard order

  size_t shard_count() const { return ranges.size(); }
};

/// Partitions the schedule for `n` queries with tile edge `block` into
/// `shard_count` contiguous ranges, balanced by upper-triangle cell count.
/// Deterministic in its arguments (workers and coordinator re-derive the
/// identical plan independently). InvalidArgument if block == 0 or
/// shard_count == 0.
Result<ShardPlan> PlanShards(size_t n, size_t block, size_t shard_count);

/// Computes one shard of a plan and exports it through the store codec —
/// the unit of work both the worker loop and the driver's self-finish run.
class ShardWorker {
 public:
  /// `pool` may be null: the shard's tiles then compute serially.
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

  /// Computes tiles plan.ranges[shard_index] of the pairwise matrix of
  /// `queries` under `measure` into a partial matrix and writes it to
  /// `store` as shard file `matrix_name`-`shard_index`of`k`. Only the
  /// queries the shard's tiles actually touch are featurized and prepared,
  /// so a shard's cost tracks its tile range, not the whole log. Returns
  /// the manifest that was written.
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
