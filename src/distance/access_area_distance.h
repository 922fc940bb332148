// Query-access-area distance (paper Definition 5):
//
//   d_AE(Q1, Q2) = (1 / |Attr_{Q1,Q2}|) * sum_{A in Attr_{Q1,Q2}} delta_A
//
//   delta_A = 0  if access_A(Q1) == access_A(Q2)
//           = x  if the areas intersect (0 < x < 1, default 0.5)
//           = 1  otherwise
//
// Requires the attribute domains (Table I row 4).

#ifndef DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_
#define DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_

#include <map>
#include <string>

#include "db/access_area.h"
#include "db/interval.h"
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
  /// Extracts every query's access areas once, filling the area cache;
  /// afterwards Distance over prepared queries is read-only and
  /// thread-safe. The cache is bound to the domain registry last Prepared:
  /// Prepare with a different registry clears and refills it (so stale
  /// areas are never served across registries), and Distance consults it
  /// only when the context carries that same registry. Without Prepare,
  /// areas are extracted per pair, as before.
  Status Prepare(std::span<const sql::SelectQuery> queries,
                 const MeasureContext& context) const override;
  Result<double> Distance(const sql::SelectQuery& q1, const sql::SelectQuery& q2,
                          const MeasureContext& context) const override;

  const Options& options() const { return options_; }

 private:
  using AreaMap = std::map<std::string, db::IntervalSet>;

  /// delta-average of two extracted area maps (the Definition-5 sum).
  double AreaDistance(const AreaMap& areas1, const AreaMap& areas2) const;

  Options options_;
  /// True when `domains` matches the snapshot the cache was extracted
  /// under — compared by content, so a registry recycled at the same
  /// address with different domains never serves stale areas via Prepare.
  bool SameDomains(const db::DomainRegistry& domains) const;

  /// Registry the cache below was extracted under (see Prepare), plus a
  /// content snapshot for revalidation on the next Prepare.
  mutable const db::DomainRegistry* cached_domains_ = nullptr;
  mutable std::map<std::string, db::Domain> cached_domain_snapshot_;
  /// Per-query areas, keyed by canonical SQL text — extraction walks the
  /// predicate tree and builds interval sets, which dominates the pairwise
  /// comparison it feeds. Transparent comparator: the hot path probes with
  /// the FeatureCache's sql as a string_view, no per-pair allocation.
  mutable std::map<std::string, AreaMap, std::less<>> cache_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_ACCESS_AREA_DISTANCE_H_
