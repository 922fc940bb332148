// Test-only oracle for mining::CompleteLink: complete link as a member-list
// scan. Every round recomputes each active cluster pair's link from the
// clusters' member lists and merges the first minimum. It is O(n³) and
// exists only to pin CompleteLink's merges, ids and distance bits
// (CompleteLinkOracleTest); src/ must never include it.
//
// The rules it fixes:
//   - the link of clusters A and B starts from worst = 0.0 and folds in, per
//     member x of A, the max of row x over B's columns, in B's member order
//     (the scalar max-at loop every SIMD backend was once tested
//     bit-identical to). So cells <= 0, -0.0 included, link at +0.0;
//   - pairs are visited in ascending (left, right) id order, and a strict <
//     keeps the first minimum: ties go to the smallest (left, right);
//   - leaves are ids 0..n-1; merge step s creates id n + s, whose member
//     list is the left cluster's members followed by the right's.
// It assumes every cell is finite.

#ifndef DPE_TESTS_MINING_COMPLETE_LINK_ORACLE_H_
#define DPE_TESTS_MINING_COMPLETE_LINK_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "distance/matrix.h"
#include "mining/hierarchical.h"

namespace dpe::testutil {

inline mining::Dendrogram OracleCompleteLink(
    const distance::DistanceMatrix& m) {
  const size_t n = m.size();
  mining::Dendrogram out;
  out.leaf_count = n;
  if (n == 0) return out;

  // Active clusters: id -> member points, in ascending id order.
  std::map<size_t, std::vector<uint32_t>> clusters;
  for (size_t i = 0; i < n; ++i) clusters[i] = {static_cast<uint32_t>(i)};

  auto row_max = [](const double* row, const std::vector<uint32_t>& idx) {
    double best = row[idx[0]];
    for (size_t k = 1; k < idx.size(); ++k) best = std::max(best, row[idx[k]]);
    return best;
  };
  auto link = [&](const std::vector<uint32_t>& a,
                  const std::vector<uint32_t>& b) {
    double worst = 0.0;
    for (uint32_t x : a) worst = std::max(worst, row_max(m.RowUnchecked(x), b));
    return worst;
  };

  size_t next_id = n;
  while (clusters.size() > 1) {
    double best_d = std::numeric_limits<double>::infinity();
    size_t best_a = 0;
    size_t best_b = 0;
    for (auto ia = clusters.begin(); ia != clusters.end(); ++ia) {
      for (auto ib = std::next(ia); ib != clusters.end(); ++ib) {
        const double d = link(ia->second, ib->second);
        if (d < best_d) {  // strict: first (smallest id pair) wins ties
          best_d = d;
          best_a = ia->first;
          best_b = ib->first;
        }
      }
    }
    std::vector<uint32_t> merged = clusters[best_a];
    const auto& right = clusters[best_b];
    merged.insert(merged.end(), right.begin(), right.end());
    clusters.erase(best_a);
    clusters.erase(best_b);
    clusters[next_id] = std::move(merged);
    out.merges.push_back({best_a, best_b, best_d});
    ++next_id;
  }
  return out;
}

/// Expects `got` to have the oracle's merges for `m`: the same left and
/// right ids and the same distance bits (so +0.0 and -0.0 differ), merge by
/// merge.
inline void ExpectOracleMerges(const distance::DistanceMatrix& m,
                               const mining::Dendrogram& got,
                               const std::string& label) {
  const mining::Dendrogram want = OracleCompleteLink(m);
  EXPECT_EQ(got.leaf_count, want.leaf_count) << label;
  ASSERT_EQ(got.merges.size(), want.merges.size()) << label;
  for (size_t i = 0; i < want.merges.size(); ++i) {
    const mining::Merge& g = got.merges[i];
    const mining::Merge& w = want.merges[i];
    ASSERT_EQ(g.left, w.left) << label << ", merge " << i;
    ASSERT_EQ(g.right, w.right) << label << ", merge " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(g.distance),
              std::bit_cast<uint64_t>(w.distance))
        << label << ", merge " << i << ": " << g.distance << " vs "
        << w.distance;
  }
}

}  // namespace dpe::testutil

#endif  // DPE_TESTS_MINING_COMPLETE_LINK_ORACLE_H_
