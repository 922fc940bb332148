// Jaccard set distance: d(A, B) = 1 - |A n B| / |A u B|; d(0, 0) = 0.
//
// Two representations: node-based std::set (the reference path) and sorted
// unique id spans (the prepared path — see distance/features.h). The
// span path dispatches |A n B| to the runtime-selected kernel backend
// (common/simd.h: a scalar branchless merge or an AVX2 8x8 block; both
// gallop for skewed sizes). Every backend computes the same exact
// cardinalities, so the distances are bit-identical across representations
// AND backends — a tested property.

#ifndef DPE_DISTANCE_JACCARD_H_
#define DPE_DISTANCE_JACCARD_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "distance/measure.h"

namespace dpe::distance {

/// Jaccard distance of two ordered sets.
template <typename T>
double JaccardDistance(const std::set<T>& a, const std::set<T>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t intersection = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++intersection;
      ++ia;
      ++ib;
    }
  }
  const size_t uni = a.size() + b.size() - intersection;
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(uni);
}

/// Jaccard similarity (1 - distance), for reporting.
template <typename T>
double JaccardSimilarity(const std::set<T>& a, const std::set<T>& b) {
  return 1.0 - JaccardDistance(a, b);
}

/// |A n B| of two sorted unique id spans, on the selected kernel backend
/// (kAuto = env override, then CPU detection). Exact count on every
/// backend.
inline size_t SortedIntersectionCount(
    std::span<const uint32_t> a, std::span<const uint32_t> b,
    common::simd::KernelBackend backend = common::simd::KernelBackend::kAuto) {
  return common::simd::KernelsFor(backend).intersect(a.data(), a.size(),
                                                     b.data(), b.size());
}

/// Jaccard distance over sorted unique id spans; bit-identical to
/// JaccardDistance over the sets the ids were interned from (the distance
/// depends only on |A n B| and |A u B|, which interning preserves) and
/// across kernel backends (the intersection is an exact count everywhere).
inline double JaccardDistanceSorted(
    std::span<const uint32_t> a, std::span<const uint32_t> b,
    common::simd::KernelBackend backend = common::simd::KernelBackend::kAuto) {
  if (a.empty() && b.empty()) return 0.0;
  const size_t intersection = SortedIntersectionCount(a, b, backend);
  const size_t uni = a.size() + b.size() - intersection;
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(uni);
}

/// The prepared log of token, structure and result: one sorted unique id set
/// per log index, viewing a FeatureCache or `arena`, which the log owns (a
/// moved vector keeps its buffer, so spans into it stay valid).
class SortedSetsLog final : public PreparedLog {
 public:
  SortedSetsLog(std::vector<std::span<const uint32_t>> sets,
                std::vector<uint32_t> arena,
                common::simd::KernelBackend backend)
      : arena_(std::move(arena)), sets_(std::move(sets)), backend_(backend) {}

  double Distance(size_t i, size_t j) const override {
    return JaccardDistanceSorted(sets_[i], sets_[j], backend_);
  }

 private:
  std::vector<uint32_t> arena_;
  std::vector<std::span<const uint32_t>> sets_;
  common::simd::KernelBackend backend_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_JACCARD_H_
