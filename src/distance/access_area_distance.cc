#include "distance/access_area_distance.h"

#include <algorithm>
#include <set>
#include <string_view>

#include "distance/features.h"
#include "sql/printer.h"

namespace dpe::distance {

double AccessAreaDistance::AreaDistance(const AreaMap& areas1,
                                        const AreaMap& areas2) const {
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
      delta = options_.x;
    } else {
      delta = 1.0;
    }
    sum += delta;
  }
  return sum / static_cast<double>(attrs.size());
}

bool AccessAreaDistance::SameDomains(const db::DomainRegistry& domains) const {
  const auto& all = domains.all();
  return all.size() == cached_domain_snapshot_.size() &&
         std::equal(all.begin(), all.end(), cached_domain_snapshot_.begin(),
                    [](const auto& a, const auto& b) {
                      return a.first == b.first &&
                             a.second.min == b.second.min &&
                             a.second.max == b.second.max;
                    });
}

Status AccessAreaDistance::Prepare(std::span<const sql::SelectQuery> queries,
                                   const MeasureContext& context) const {
  if (context.domains == nullptr) {
    return Status::InvalidArgument(
        "access-area distance requires shared attribute domains (Table I)");
  }
  if (context.domains != cached_domains_ || !SameDomains(*context.domains)) {
    cache_.clear();
    cached_domains_ = context.domains;
    cached_domain_snapshot_ = context.domains->all();
  }
  for (const sql::SelectQuery& q : queries) {
    const QueryFeatures* f =
        context.features != nullptr ? context.features->Find(q) : nullptr;
    std::string key = f != nullptr ? f->sql : sql::ToSql(q);
    if (cache_.count(key) > 0) continue;
    DPE_ASSIGN_OR_RETURN(
        AreaMap areas,
        db::AccessAreas(q, *context.domains, options_.extraction));
    cache_.emplace(std::move(key), std::move(areas));
  }
  return Status::OK();
}

Result<double> AccessAreaDistance::Distance(const sql::SelectQuery& q1,
                                            const sql::SelectQuery& q2,
                                            const MeasureContext& context) const {
  if (context.domains == nullptr) {
    return Status::InvalidArgument(
        "access-area distance requires shared attribute domains (Table I)");
  }

  // Read-only cache probe (Distance must stay thread-safe after Prepare),
  // valid only under the registry the cache was extracted for. With a
  // FeatureCache in the context the probe key is a view of the
  // precomputed sql — no allocation on the hot path.
  const AreaMap* areas1 = nullptr;
  const AreaMap* areas2 = nullptr;
  if (context.domains == cached_domains_) {
    auto lookup = [&](const sql::SelectQuery& q) -> const AreaMap* {
      const QueryFeatures* f =
          context.features != nullptr ? context.features->Find(q) : nullptr;
      auto it = f != nullptr ? cache_.find(std::string_view(f->sql))
                             : cache_.find(sql::ToSql(q));
      return it == cache_.end() ? nullptr : &it->second;
    };
    areas1 = lookup(q1);
    areas2 = lookup(q2);
  }

  AreaMap local1, local2;
  if (areas1 == nullptr) {
    DPE_ASSIGN_OR_RETURN(
        local1, db::AccessAreas(q1, *context.domains, options_.extraction));
    areas1 = &local1;
  }
  if (areas2 == nullptr) {
    DPE_ASSIGN_OR_RETURN(
        local2, db::AccessAreas(q2, *context.domains, options_.extraction));
    areas2 = &local2;
  }
  return AreaDistance(*areas1, *areas2);
}

}  // namespace dpe::distance
