// Query-access-area distance (paper Definition 5):
//
//   d_AE(Q1, Q2) = (1 / |Attr_{Q1,Q2}|) * sum_{A in Attr_{Q1,Q2}} delta_A
//
//   delta_A = 0  if access_A(Q1) == access_A(Q2)
//           = x  if the areas intersect (0 < x < 1, default 0.5)
//           = 1  otherwise
//
// Requires the attribute domains (Table I row 4). Prepare extracts each
// query's areas once, by log index; the reference Distance extracts both
// queries' areas on every call. Both feed the same Definition-5 sum, taken
// in attribute-name order, so the two paths agree bit for bit for any x.

#ifndef DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_
#define DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_

#include "db/access_area.h"
#include "distance/measure.h"

namespace dpe::distance {

class AccessAreaDistance final : public QueryDistanceMeasure {
 public:
  struct Options {
    /// The paper's x parameter: the partial-overlap distance, in (0, 1).
    double x = 0.5;
    /// Passed through to the access-area extractor (ablation A1d/A1e).
    db::AccessAreaOptions extraction;
  };

  AccessAreaDistance() = default;
  explicit AccessAreaDistance(const Options& options) : options_(options) {}

  /// The canonical DPE extraction options: access areas over the unbounded
  /// universe, which commutes with both DET (points) and OPE (ranges)
  /// constants — the configuration Table I's access-area row is proved for.
  /// Both core::MakeMeasure and the engine's measure registry build from
  /// this, so owner and provider always agree.
  static Options CanonicalDpeOptions() {
    Options options;
    options.extraction.include_select_clause = false;
    options.extraction.clip_to_domain = false;
    return options;
  }

  std::string Name() const override { return "access-area"; }
  SharedInformation Shared() const override { return {true, false, true}; }
  /// Extracts every query's access areas once, by log index; a pair then
  /// only compares two extracted area maps.
  Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_
