// Agglomerative hierarchical clustering with the complete-link criterion.
//
// The dendrogram comes from the "generic" nearest-neighbour-cache algorithm
// of Müllner, "Modern hierarchical, agglomerative clustering algorithms"
// (arXiv:1109.2378). One n x n working copy holds the cluster distances.
// After a merge of a and b, the Lance–Williams rule for complete link,
// d(x, a ∪ b) = max(d(x, a), d(x, b)), fills the new cluster's row. Each
// active cluster caches its nearest neighbour among clusters with a higher
// id.
//
// Tie rule: each round merges the lexicographically smallest
// (distance, left id, right id) pair, left < right. Leaves are ids
// 0..n-1 and merge step s creates id n + s. A merge distance is the max of
// the member-pair cells, clamped below at +0.0; max is exact, so it is the
// same double whatever the merge history. Defays' CLINK (1977, [3] in the
// paper) is O(n²) as well, but its pointer representation does not
// reproduce this tie order.
//
// Cost: O(n²) time, plus O(n) for each row whose cached neighbour merges
// away and must be rescanned (mining.hierarchical.rescans). Adversarial
// inputs can force O(n) rescans per round, O(n³) in all; the shop logs
// make 1.0–1.4 per merge at n = 544. Memory: the working copy, n² doubles,
// freed on return.

#ifndef DPE_MINING_HIERARCHICAL_H_
#define DPE_MINING_HIERARCHICAL_H_

#include "common/simd.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "mining/partition.h"
#include "obs/metrics.h"

namespace dpe::mining {

/// One merge step of the dendrogram.
struct Merge {
  size_t left;     ///< cluster id merged (cluster ids: 0..n-1 leaves, then n+step)
  size_t right;
  double distance; ///< complete-link distance at which the merge happened
};

struct Dendrogram {
  size_t leaf_count = 0;
  std::vector<Merge> merges;  ///< n-1 merges, in order

  /// Cuts the dendrogram into exactly `k` clusters (undoes the last k-1
  /// merges); k in [1, leaf_count].
  Result<Labels> CutK(size_t k) const;
};

/// Builds the complete-link dendrogram from a distance matrix. A NaN or
/// ±inf cell is InvalidArgument, naming the cell. The run is serial and
/// calls no SIMD kernel: `pool` and `backend` are ignored, and stay only so
/// existing callers keep compiling.
/// `metrics` (optional) records
/// mining.hierarchical.{runs,merge_rounds,rescans}.
Result<Dendrogram> CompleteLink(
    const distance::DistanceMatrix& matrix, common::ThreadPool* pool = nullptr,
    common::simd::KernelBackend backend = common::simd::KernelBackend::kAuto,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace dpe::mining

#endif  // DPE_MINING_HIERARCHICAL_H_
