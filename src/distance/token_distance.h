// Token-based query-string distance (paper Definition 3):
//   d_token(Q1, Q2) = 1 - |tokens(Q1) n tokens(Q2)| / |tokens(Q1) u tokens(Q2)|

#ifndef DPE_DISTANCE_TOKEN_DISTANCE_H_
#define DPE_DISTANCE_TOKEN_DISTANCE_H_

#include "distance/measure.h"

namespace dpe::distance {

class TokenDistance final : public QueryDistanceMeasure {
 public:
  std::string Name() const override { return "token"; }
  SharedInformation Shared() const override { return {true, false, false}; }
  Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_TOKEN_DISTANCE_H_
