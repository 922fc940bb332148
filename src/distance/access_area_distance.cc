#include "distance/access_area_distance.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/interval.h"

namespace dpe::distance {

namespace {

using AreaMap = std::map<std::string, db::IntervalSet>;

/// delta-average of two extracted area maps (the Definition-5 sum).
double AreaDistance(const AreaMap& areas1, const AreaMap& areas2, double x) {
  std::set<std::string> attrs;
  for (const auto& [key, area] : areas1) attrs.insert(key);
  for (const auto& [key, area] : areas2) attrs.insert(key);
  if (attrs.empty()) return 0.0;  // neither query accesses anything

  double sum = 0.0;
  for (const std::string& attr : attrs) {
    auto it1 = areas1.find(attr);
    auto it2 = areas2.find(attr);
    const db::IntervalSet empty;
    const db::IntervalSet& a1 = it1 != areas1.end() ? it1->second : empty;
    const db::IntervalSet& a2 = it2 != areas2.end() ? it2->second : empty;
    double delta;
    if (a1 == a2) {
      delta = 0.0;
    } else if (a1.Intersects(a2)) {
      delta = x;
    } else {
      delta = 1.0;
    }
    sum += delta;
  }
  return sum / static_cast<double>(attrs.size());
}

Status RequireDomains(const MeasureContext& context) {
  if (context.domains == nullptr) {
    return Status::InvalidArgument(
        "access-area distance requires shared attribute domains (Table I)");
  }
  return Status::OK();
}

/// One extracted area map per log index.
class AreaLog final : public PreparedLog {
 public:
  AreaLog(std::vector<AreaMap> areas, double x)
      : areas_(std::move(areas)), x_(x) {}

  double Distance(size_t i, size_t j) const override {
    return AreaDistance(areas_[i], areas_[j], x_);
  }

 private:
  std::vector<AreaMap> areas_;
  double x_;
};

}  // namespace

Result<std::unique_ptr<PreparedLog>> AccessAreaDistance::Prepare(
    std::span<const sql::SelectQuery> queries, const FeatureCache& features,
    const MeasureContext& context) const {
  (void)features;
  DPE_RETURN_NOT_OK(RequireDomains(context));
  std::vector<AreaMap> areas(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    DPE_ASSIGN_OR_RETURN(
        areas[i],
        db::AccessAreas(queries[i], *context.domains, options_.extraction));
  }
  return {std::make_unique<AreaLog>(std::move(areas), options_.x)};
}

Result<double> AccessAreaDistance::Distance(const sql::SelectQuery& q1,
                                            const sql::SelectQuery& q2,
                                            const MeasureContext& context) const {
  DPE_RETURN_NOT_OK(RequireDomains(context));
  DPE_ASSIGN_OR_RETURN(
      AreaMap areas1, db::AccessAreas(q1, *context.domains, options_.extraction));
  DPE_ASSIGN_OR_RETURN(
      AreaMap areas2, db::AccessAreas(q2, *context.domains, options_.extraction));
  return AreaDistance(areas1, areas2, options_.x);
}

}  // namespace dpe::distance
