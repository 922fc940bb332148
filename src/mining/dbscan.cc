#include "mining/dbscan.h"

#include <deque>
#include <vector>

namespace dpe::mining {

Result<DbscanResult> Dbscan(const distance::DistanceMatrix& m,
                            const DbscanOptions& options) {
  if (options.epsilon < 0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  const size_t n = m.size();
  DbscanResult result;
  result.labels.assign(n, -1);
  std::vector<bool> visited(n, false);

  // One row scan per visit, into one reused buffer. The expansion copies a
  // core point's list into the queue before the next scan overwrites it.
  uint64_t scans = 0;
  std::vector<size_t> buffer;
  auto neighbors = [&](size_t p) -> const std::vector<size_t>& {
    ++scans;
    buffer.clear();
    for (size_t q = 0; q < n; ++q) {
      if (m.AtUnchecked(p, q) <= options.epsilon) buffer.push_back(q);
    }
    return buffer;
  };

  int cluster = 0;
  for (size_t p = 0; p < n; ++p) {
    if (visited[p]) continue;
    visited[p] = true;
    const std::vector<size_t>& seeds = neighbors(p);
    if (seeds.size() < options.min_points) continue;  // noise (for now)
    result.labels[p] = cluster;
    std::deque<size_t> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      size_t q = queue.front();
      queue.pop_front();
      if (result.labels[q] == -1) result.labels[q] = cluster;  // border point
      if (visited[q]) continue;
      visited[q] = true;
      result.labels[q] = cluster;
      const std::vector<size_t>& q_neighbors = neighbors(q);
      if (q_neighbors.size() >= options.min_points) {
        queue.insert(queue.end(), q_neighbors.begin(), q_neighbors.end());
      }
    }
    ++cluster;
  }
  result.cluster_count = static_cast<size_t>(cluster);
  result.labels = CanonicalizeLabels(result.labels);
  if (options.metrics != nullptr) {
    options.metrics->counter("mining.dbscan.runs").Increment();
    options.metrics->counter("mining.dbscan.neighborhood_scans")
        .Increment(scans);
  }
  return result;
}

}  // namespace dpe::mining
