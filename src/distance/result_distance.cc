#include "distance/result_distance.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "distance/features.h"
#include "distance/jaccard.h"
#include "sql/printer.h"

namespace dpe::distance {

namespace {

/// Cache key: the database identity plus the canonical SQL text (reused
/// from the feature cache when present, so the hot path never re-prints).
std::string CacheKey(const sql::SelectQuery& q, const MeasureContext& context) {
  char db_tag[32];
  std::snprintf(db_tag, sizeof(db_tag), "%p|",
                static_cast<const void*>(context.database));
  if (context.features != nullptr) {
    if (const QueryFeatures* f = context.features->Find(q)) {
      return std::string(db_tag) + f->sql;
    }
  }
  return std::string(db_tag) + sql::ToSql(q);
}

}  // namespace

Result<const std::vector<uint32_t>*> ResultDistance::TupleIdsOf(
    const sql::SelectQuery& q, const MeasureContext& context) const {
  std::string key = CacheKey(q, context);
  auto it = cache_.find(key);
  if (it != cache_.end()) return &it->second;

  db::ExecuteOptions default_options;
  const db::ExecuteOptions& options =
      context.exec_options ? *context.exec_options : default_options;
  DPE_ASSIGN_OR_RETURN(db::ResultTable r, db::Execute(*context.database, q, options));
  std::set<std::string> tuples = r.TupleKeySet();
  std::vector<uint32_t> ids;
  ids.reserve(tuples.size());
  for (const std::string& tuple : tuples) {
    auto [id_it, inserted] = tuple_ids_.emplace(
        tuple, static_cast<uint32_t>(tuple_ids_.size()));
    (void)inserted;
    ids.push_back(id_it->second);
  }
  std::sort(ids.begin(), ids.end());
  auto [inserted, ok] = cache_.emplace(std::move(key), std::move(ids));
  (void)ok;
  return &inserted->second;
}

Status ResultDistance::Prepare(std::span<const sql::SelectQuery> queries,
                               const MeasureContext& context) const {
  if (context.database == nullptr) {
    return Status::InvalidArgument(
        "result distance requires the database content (Table I)");
  }
  for (const sql::SelectQuery& q : queries) {
    DPE_ASSIGN_OR_RETURN(const std::vector<uint32_t>* ids,
                         TupleIdsOf(q, context));
    (void)ids;
  }
  return Status::OK();
}

Result<double> ResultDistance::Distance(const sql::SelectQuery& q1,
                                        const sql::SelectQuery& q2,
                                        const MeasureContext& context) const {
  if (context.database == nullptr) {
    return Status::InvalidArgument(
        "result distance requires the database content (Table I)");
  }
  DPE_ASSIGN_OR_RETURN(const std::vector<uint32_t>* t1, TupleIdsOf(q1, context));
  DPE_ASSIGN_OR_RETURN(const std::vector<uint32_t>* t2, TupleIdsOf(q2, context));
  return JaccardDistanceSorted(*t1, *t2, context.kernel_backend);
}

}  // namespace dpe::distance
