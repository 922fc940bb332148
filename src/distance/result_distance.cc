#include "distance/result_distance.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distance/features.h"
#include "distance/jaccard.h"

namespace dpe::distance {

namespace {

Status RequireDatabase(const MeasureContext& context) {
  if (context.database == nullptr) {
    return Status::InvalidArgument(
        "result distance requires the database content (Table I)");
  }
  return Status::OK();
}

Result<std::set<std::string>> TupleKeys(const sql::SelectQuery& q,
                                        const MeasureContext& context) {
  const db::ExecuteOptions default_options;
  const db::ExecuteOptions& options =
      context.exec_options ? *context.exec_options : default_options;
  DPE_ASSIGN_OR_RETURN(db::ResultTable r,
                       db::Execute(*context.database, q, options));
  return r.TupleKeySet();
}

}  // namespace

Result<std::unique_ptr<PreparedLog>> ResultDistance::Prepare(
    std::span<const sql::SelectQuery> queries, const FeatureCache& features,
    const MeasureContext& context) const {
  DPE_RETURN_NOT_OK(RequireDatabase(context));
  // Query i's ids are the bounds[i].second ids at arena[bounds[i].first]. A
  // query whose SQL text was seen before shares the first one's ids.
  std::vector<uint32_t> arena;
  std::vector<std::pair<size_t, size_t>> bounds(queries.size());
  std::unordered_map<std::string_view, size_t> first_with_text;
  std::unordered_map<std::string, uint32_t> tuple_ids;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [seen, inserted] = first_with_text.emplace(features[i].sql, i);
    if (!inserted) {
      bounds[i] = bounds[seen->second];
      continue;
    }
    DPE_ASSIGN_OR_RETURN(std::set<std::string> tuples,
                         TupleKeys(queries[i], context));
    const size_t begin = arena.size();
    for (const std::string& tuple : tuples) {
      arena.push_back(tuple_ids
                          .try_emplace(tuple,
                                       static_cast<uint32_t>(tuple_ids.size()))
                          .first->second);
    }
    std::sort(arena.begin() + begin, arena.end());
    bounds[i] = {begin, arena.size() - begin};
  }
  std::vector<std::span<const uint32_t>> sets(queries.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    sets[i] = std::span(arena).subspan(bounds[i].first, bounds[i].second);
  }
  return {std::make_unique<SortedSetsLog>(std::move(sets), std::move(arena),
                                          context.kernel_backend)};
}

Result<double> ResultDistance::Distance(const sql::SelectQuery& q1,
                                        const sql::SelectQuery& q2,
                                        const MeasureContext& context) const {
  DPE_RETURN_NOT_OK(RequireDatabase(context));
  DPE_ASSIGN_OR_RETURN(std::set<std::string> t1, TupleKeys(q1, context));
  DPE_ASSIGN_OR_RETURN(std::set<std::string> t2, TupleKeys(q2, context));
  return JaccardDistance(t1, t2);
}

}  // namespace dpe::distance
