#include "mining/knn.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

namespace dpe::mining {

Result<std::vector<size_t>> NearestNeighbors(
    const distance::DistanceMatrix& m, size_t i, size_t k,
    common::simd::KernelBackend /*backend*/) {
  const size_t n = m.size();
  if (i >= n) return Status::OutOfRange("point index out of range");
  if (k >= n) return Status::InvalidArgument("k must be < n");
  const double* row = m.RowUnchecked(i);
  std::vector<size_t> order;
  order.reserve(n - 1);
  for (size_t j = 0; j < n; ++j) {
    if (j == i) continue;  // never its own neighbour
    if (std::isnan(row[j])) {
      // NaN is unordered: the comparator below would be no strict weak
      // order, and the selection would be arbitrary.
      return Status::InvalidArgument("NearestNeighbors: cell (" +
                                     std::to_string(i) + ", " +
                                     std::to_string(j) + ") is NaN");
    }
    order.push_back(j);
  }
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [row](size_t a, size_t b) {
                      return row[a] < row[b] || (row[a] == row[b] && a < b);
                    });
  // Exactly k indices: callers keep one list per query.
  return std::vector<size_t>(order.begin(), order.begin() + k);
}

Result<int> KnnClassify(const distance::DistanceMatrix& m, const Labels& labels,
                        size_t i, size_t k) {
  if (labels.size() != m.size()) {
    return Status::InvalidArgument("labels size must match matrix size");
  }
  DPE_ASSIGN_OR_RETURN(std::vector<size_t> nn, NearestNeighbors(m, i, k));
  std::map<int, size_t> votes;
  for (size_t j : nn) ++votes[labels[j]];
  int best_label = -1;
  size_t best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {  // map order => smallest label wins ties
      best_votes = count;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace dpe::mining
