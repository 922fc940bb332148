#include "mining/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>

namespace dpe::mining {

Result<Dendrogram> CompleteLink(const distance::DistanceMatrix& m,
                                common::ThreadPool* /*pool*/,
                                common::simd::KernelBackend /*backend*/,
                                obs::MetricsRegistry* metrics) {
  const size_t n = m.size();
  Dendrogram out;
  out.leaf_count = n;
  if (metrics != nullptr) {
    metrics->counter("mining.hierarchical.runs").Increment();
  }
  if (n == 0) return out;

  // Working copy of the cluster distances, n x n over slots. Slot s holds
  // the active cluster id[s]; merging a and b reuses a's slot for the new
  // cluster and retires b's. Cells start at max(0.0, cell): a link is the
  // max over member pairs starting from +0.0, so cells <= 0 (-0.0
  // included) link at +0.0.
  std::vector<double> dist(n * n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = m.RowUnchecked(i);
    double* copy = dist.data() + i * n;
    for (size_t j = 0; j < n; ++j) {
      if (!std::isfinite(row[j])) {
        return Status::InvalidArgument(
            "CompleteLink: cell (" + std::to_string(i) + ", " +
            std::to_string(j) + ") is " + std::to_string(row[j]) +
            "; distances must be finite");
      }
      copy[j] = std::max(0.0, row[j]);
    }
  }

  // Active slots in ascending cluster id. A merged cluster's id is larger
  // than every active id, so it goes to the back: "a higher id" is "a later
  // position".
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> id = order;

  // Nearest-neighbour cache of the cluster in slot s: the slot of the first
  // minimum among the clusters after it in `order` (ties go to the smallest
  // id) and its distance; s and +inf when no cluster comes after it.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<size_t> nn(n);
  std::vector<double> nn_dist(n);
  auto scan = [&](size_t pos) {
    const size_t s = order[pos];
    const double* row = dist.data() + s * n;
    size_t best = s;
    double best_dist = kNone;
    for (size_t q = pos + 1; q < order.size(); ++q) {
      if (row[order[q]] < best_dist) {  // strict: first minimum wins ties
        best = order[q];
        best_dist = row[best];
      }
    }
    nn[s] = best;
    nn_dist[s] = best_dist;
  };
  for (size_t pos = 0; pos < n; ++pos) scan(pos);

  uint64_t rescans = 0;
  out.merges.reserve(n - 1);
  for (size_t next_id = n; order.size() > 1; ++next_id) {
    // The smallest (distance, id) over the caches is the lexicographically
    // smallest (distance, left, right) pair.
    size_t a = order[0];
    for (size_t pos = 1; pos < order.size(); ++pos) {
      if (nn_dist[order[pos]] < nn_dist[a]) a = order[pos];
    }
    const size_t b = nn[a];
    out.merges.push_back({id[a], id[b], nn_dist[a]});

    // Lance–Williams for complete link: d(x, a ∪ b) = max(d(x, a), d(x, b)).
    // Max is exact, so every later merge distance is the max over member
    // pairs, the same double for any merge history.
    double* row_a = dist.data() + a * n;
    const double* row_b = dist.data() + b * n;
    for (size_t x : order) {
      if (x == a || x == b) continue;
      row_a[x] = std::max(row_a[x], row_b[x]);
      dist[x * n + a] = row_a[x];
    }
    std::erase_if(order, [&](size_t s) { return s == a || s == b; });
    order.push_back(a);
    id[a] = next_id;
    nn[a] = a;
    nn_dist[a] = kNone;

    // Rows whose cached neighbour was a or b rescan. Every other row
    // compares its one new cell with its cache; strict <, so a tie keeps
    // the older neighbour, whose id is smaller than the new cluster's.
    for (size_t pos = 0; pos + 1 < order.size(); ++pos) {
      const size_t s = order[pos];
      if (nn[s] == a || nn[s] == b) {
        scan(pos);
        ++rescans;
      } else if (row_a[s] < nn_dist[s]) {
        nn[s] = a;
        nn_dist[s] = row_a[s];
      }
    }
  }
  if (metrics != nullptr) {
    metrics->counter("mining.hierarchical.merge_rounds")
        .Increment(out.merges.size());
    metrics->counter("mining.hierarchical.rescans").Increment(rescans);
  }
  return out;
}

Result<Labels> Dendrogram::CutK(size_t k) const {
  if (k == 0 || k > leaf_count) {
    return Status::InvalidArgument("k must be in [1, leaf_count]");
  }
  // Replay the first (leaf_count - k) merges with a union-find.
  std::vector<size_t> parent(leaf_count + merges.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const size_t replay = leaf_count - k;
  for (size_t step = 0; step < replay; ++step) {
    const Merge& mg = merges[step];
    size_t fresh = leaf_count + step;
    parent[find(mg.left)] = fresh;
    parent[find(mg.right)] = fresh;
  }
  Labels labels(leaf_count);
  std::map<size_t, int> root_to_label;
  int next = 0;
  for (size_t i = 0; i < leaf_count; ++i) {
    size_t root = find(i);
    auto [it, inserted] = root_to_label.emplace(root, next);
    if (inserted) ++next;
    labels[i] = it->second;
  }
  return CanonicalizeLabels(labels);
}

}  // namespace dpe::mining
