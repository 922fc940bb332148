#include "distance/token_distance.h"

#include "distance/features.h"
#include "distance/jaccard.h"
#include "sql/lexer.h"
#include "sql/printer.h"

namespace dpe::distance {

Result<std::unique_ptr<PreparedLog>> TokenDistance::Prepare(
    std::span<const sql::SelectQuery> queries, const FeatureCache& features,
    const MeasureContext& context) const {
  std::vector<std::span<const uint32_t>> sets(queries.size());
  for (size_t i = 0; i < sets.size(); ++i) sets[i] = features[i].token_ids;
  return {std::make_unique<SortedSetsLog>(
      std::move(sets), std::vector<uint32_t>{}, context.kernel_backend)};
}

Result<double> TokenDistance::Distance(const sql::SelectQuery& q1,
                                       const sql::SelectQuery& q2,
                                       const MeasureContext& context) const {
  (void)context;
  DPE_ASSIGN_OR_RETURN(auto t1, sql::TokenSet(sql::ToSql(q1)));
  DPE_ASSIGN_OR_RETURN(auto t2, sql::TokenSet(sql::ToSql(q2)));
  return JaccardDistance(t1, t2);
}

}  // namespace dpe::distance
