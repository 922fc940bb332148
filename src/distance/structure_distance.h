// Query-structure distance (paper §IV-B-2): Jaccard over the SnipSuggest
// feature sets of the two queries.

#ifndef DPE_DISTANCE_STRUCTURE_DISTANCE_H_
#define DPE_DISTANCE_STRUCTURE_DISTANCE_H_

#include "distance/measure.h"

namespace dpe::distance {

class StructureDistance final : public QueryDistanceMeasure {
 public:
  std::string Name() const override { return "structure"; }
  SharedInformation Shared() const override { return {true, false, false}; }
  Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_STRUCTURE_DISTANCE_H_
