// DBSCAN (Ester et al. 1996, [4] in the paper) on a precomputed distance
// matrix. Deterministic: points are seeded in index order, so two identical
// matrices always produce identical labelings.
//
// The run is serial. Each visited point's epsilon-neighbourhood is found by
// one lazy scan of its matrix row into a single reused buffer, so a run
// scans n rows in all and needs O(n) memory beyond the labels. It stays
// serial because precomputing every list on a pool bought at most 14% on
// the shop logs (2 threads, n = 544 to 712; up to 1.46x slower at 544)
// and held O(sum of neighbourhood sizes) memory; `pool` is ignored.

#ifndef DPE_MINING_DBSCAN_H_
#define DPE_MINING_DBSCAN_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "mining/partition.h"
#include "obs/metrics.h"

namespace dpe::mining {

struct DbscanOptions {
  double epsilon = 0.3;  ///< neighborhood radius (distances are in [0,1])
  size_t min_points = 3; ///< core-point threshold, *including* the point itself
  /// Ignored: the run is serial. Kept only so existing callers compile.
  common::ThreadPool* pool = nullptr;
  /// Records mining.dbscan.{runs,neighborhood_scans}; nullptr = none.
  obs::MetricsRegistry* metrics = nullptr;
};

struct DbscanResult {
  Labels labels;        ///< -1 = noise
  size_t cluster_count = 0;
};

Result<DbscanResult> Dbscan(const distance::DistanceMatrix& matrix,
                            const DbscanOptions& options);

}  // namespace dpe::mining

#endif  // DPE_MINING_DBSCAN_H_
