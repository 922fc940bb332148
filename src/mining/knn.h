// k-nearest-neighbour queries and a majority-vote classifier on a
// precomputed distance matrix.

#ifndef DPE_MINING_KNN_H_
#define DPE_MINING_KNN_H_

#include "common/simd.h"
#include "common/status.h"
#include "distance/matrix.h"
#include "mining/partition.h"

namespace dpe::mining {

/// The k nearest neighbours of point `i` (excluding itself): exactly k
/// indices, ordered by (distance, index), so +inf cells come last, in index
/// order. A NaN cell in row i is InvalidArgument, naming the cell.
/// `backend` is ignored: the selection is one partial sort and calls no
/// SIMD kernel. It stays only so existing callers keep compiling.
Result<std::vector<size_t>> NearestNeighbors(
    const distance::DistanceMatrix& m, size_t i, size_t k,
    common::simd::KernelBackend backend = common::simd::KernelBackend::kAuto);

/// Majority-vote kNN label for point `i`, given labels for all points
/// (label of i itself is ignored). Ties break to the smallest label.
Result<int> KnnClassify(const distance::DistanceMatrix& m, const Labels& labels,
                        size_t i, size_t k);

}  // namespace dpe::mining

#endif  // DPE_MINING_KNN_H_
