// Internal helper for the parallel mining kernels: a pool-optional
// ParallelFor. k-medoids and DB(p, D) outliers take an optional
// common::ThreadPool* in their options; nullptr means the serial reference
// path (one chunk, inline). DBSCAN and complete link run serially.
//
// Determinism contract: miners only parallelize per-element maps (element i
// is produced entirely by one task, in the same inner order as the serial
// loop) and reduce serially in index/chunk order afterwards — so results
// are bit-identical across thread counts, including the FP sums.

#ifndef DPE_MINING_PARALLEL_UTIL_H_
#define DPE_MINING_PARALLEL_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <functional>

#include "common/thread_pool.h"

namespace dpe::mining {

/// Chunked loop over [begin, end): on the pool when one is given, inline
/// otherwise. Chunk boundaries depend only on (begin, end, grain).
inline void MaybeParallelFor(common::ThreadPool* pool, size_t begin,
                             size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  if (pool == nullptr) {
    body(begin, end);
    return;
  }
  common::ParallelFor(*pool, begin, end, grain, body);
}

/// Default chunk grain for row-wise mining loops: small enough to spread n
/// rows over the pool, large enough (floor of 16 rows) that scheduling a
/// chunk stays cheap relative to its O(n) row scans. Grain only affects
/// scheduling, never results — chunk boundaries are deterministic and the
/// miners reduce serially.
inline size_t MiningGrain(size_t n, common::ThreadPool* pool) {
  if (pool == nullptr || pool->thread_count() <= 1) return n > 0 ? n : 1;
  return std::max<size_t>(16, n / (4 * pool->thread_count()));
}

}  // namespace dpe::mining

#endif  // DPE_MINING_PARALLEL_UTIL_H_
