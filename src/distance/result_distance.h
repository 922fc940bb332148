// Query-result distance (paper §IV-B-3): Jaccard over the sets of result
// tuples. Requires the database content (Table I row 3); queries are
// executed against context.database as it is at the call.
//
// Prepare executes each distinct SQL text of the log once and interns the
// result tuples into sorted id vectors, in an id space local to that
// Prepare — a pair is then a merge intersection over ids. Interning is a
// bijection on the tuple keys actually seen, so the Jaccard values are
// bit-identical to the reference Distance's tuple-key-set computation.

#ifndef DPE_DISTANCE_RESULT_DISTANCE_H_
#define DPE_DISTANCE_RESULT_DISTANCE_H_

#include "distance/measure.h"

namespace dpe::distance {

class ResultDistance final : public QueryDistanceMeasure {
 public:
  std::string Name() const override { return "result"; }
  SharedInformation Shared() const override { return {true, true, false}; }
  Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_RESULT_DISTANCE_H_
