// Levenshtein query-string distances — the alternative string measure the
// paper's Example 2 mentions ("one can use a string-distance measure like
// the Levenshtein distance").
//
// Two granularities with opposite DPE behavior (ablated in bench_ablation):
//  * kTokenSequence — edit distance over the lexed token sequence,
//    normalized by the longer length. Preserved exactly by the token scheme
//    (a bijective per-token substitution preserves the equality pattern of
//    the two sequences, hence the DP table).
//  * kCharacter — edit distance over raw characters, normalized. NOT
//    preserved by any token-wise encryption (ciphertext lexeme lengths
//    differ from plaintext lengths) — the measured reason the paper's case
//    study builds on token *sets*, not strings.

#ifndef DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_
#define DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

/// Plain two-row DP edit distance: the un-featurized reference, and the
/// oracle the tests and bench_simd_kernels check Myers' kernel against. It
/// reads only element (in)equality, so it runs unchanged over string
/// vectors, interned id vectors and raw character strings: the equality
/// pattern, hence every table cell, is the same across them, and the
/// featurized path's Myers kernel (common/simd.h) returns the same integer.
template <typename Seq>
size_t EditDistance(const Seq& a, const Seq& b) {
  const size_t n = a.size(), m = b.size();
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t substitution = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, substitution});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

class LevenshteinDistance final : public QueryDistanceMeasure {
 public:
  enum class Granularity { kTokenSequence, kCharacter };

  explicit LevenshteinDistance(Granularity g = Granularity::kTokenSequence)
      : granularity_(g) {}

  std::string Name() const override {
    return granularity_ == Granularity::kTokenSequence ? "levenshtein-token"
                                                       : "levenshtein-char";
  }
  SharedInformation Shared() const override { return {true, false, false}; }
  Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;

 private:
  Granularity granularity_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_
