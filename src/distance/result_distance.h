// Query-result distance (paper §IV-B-3): Jaccard over the sets of result
// tuples. Requires the database content (Table I row 3); both queries are
// executed against context.database.
//
// Each query is executed once (Prepare, or lazily on first use) and its
// result tuples are interned into a sorted id vector — the per-pair hot
// path is then a merge intersection over ids instead of a string-set walk.
// Interning is a bijection on the tuple keys actually seen, so the Jaccard
// values are bit-identical to the direct string-set computation.

#ifndef DPE_DISTANCE_RESULT_DISTANCE_H_
#define DPE_DISTANCE_RESULT_DISTANCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

class ResultDistance final : public QueryDistanceMeasure {
 public:
  std::string Name() const override { return "result"; }
  SharedInformation Shared() const override { return {true, true, false}; }
  /// Executes every query once, filling the tuple-id cache; afterwards
  /// Distance over prepared queries is read-only and thread-safe.
  Status Prepare(std::span<const sql::SelectQuery> queries,
                 const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;

 private:
  /// Sorted interned tuple ids of one query's result, memoized per
  /// (database, SQL text) so a distance matrix over n queries executes each
  /// query once, not n times.
  Result<const std::vector<uint32_t>*> TupleIdsOf(
      const sql::SelectQuery& q, const MeasureContext& context) const;

  mutable std::map<std::string, std::vector<uint32_t>> cache_;
  /// Tuple key -> id, shared across the cached queries (one id space per
  /// measure instance; Jaccard only needs ids consistent within it).
  mutable std::unordered_map<std::string, uint32_t> tuple_ids_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_RESULT_DISTANCE_H_
