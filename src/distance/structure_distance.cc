#include "distance/structure_distance.h"

#include "distance/features.h"
#include "distance/jaccard.h"
#include "sql/features.h"

namespace dpe::distance {

Result<std::unique_ptr<PreparedLog>> StructureDistance::Prepare(
    std::span<const sql::SelectQuery> queries, const FeatureCache& features,
    const MeasureContext& context) const {
  std::vector<std::span<const uint32_t>> sets(queries.size());
  for (size_t i = 0; i < sets.size(); ++i) sets[i] = features[i].structure_ids;
  return {std::make_unique<SortedSetsLog>(
      std::move(sets), std::vector<uint32_t>{}, context.kernel_backend)};
}

Result<double> StructureDistance::Distance(const sql::SelectQuery& q1,
                                           const sql::SelectQuery& q2,
                                           const MeasureContext& context) const {
  (void)context;
  return JaccardDistance(sql::Features(q1), sql::Features(q2));
}

}  // namespace dpe::distance
