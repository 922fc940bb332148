#include "distance/features.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "sql/lexer.h"
#include "sql/printer.h"

namespace dpe::distance {

Result<RawQueryFeatures> ExtractRawFeatures(const sql::SelectQuery& query) {
  RawQueryFeatures raw;
  raw.sql = sql::ToSql(query);
  DPE_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(raw.sql));
  raw.token_seq.reserve(tokens.size());
  for (sql::Token& t : tokens) raw.token_seq.push_back(std::move(t.lexeme));
  std::set<sql::Feature> features = sql::Features(query);
  raw.structure.assign(features.begin(), features.end());
  return raw;
}

FeatureCache FeatureCache::Intern(std::vector<RawQueryFeatures> raw) {
  FeatureCache cache;
  cache.features_.resize(raw.size());

  // Exact upper bound on the arena: per query, the token sequence, its
  // deduplicated copy (<= sequence length) and the structure ids. Reserving
  // it up front means the arena NEVER reallocates below, so spans taken
  // while packing stay valid for the cache's lifetime.
  size_t upper = 0;
  for (const RawQueryFeatures& r : raw) {
    upper += 2 * r.token_seq.size() + r.structure.size();
  }
  cache.arena_.reserve(upper);
  std::vector<uint32_t>& arena = cache.arena_;

  // Ids are assigned in first-seen order over the input — deterministic for
  // a given log, though the distances never depend on the assignment (only
  // on cardinalities, which any bijection preserves). The arena is packed
  // in input (= log) order, so the blocked builder's tiles read contiguous
  // arena ranges.
  std::unordered_map<std::string, uint32_t> token_ids;
  std::map<sql::Feature, uint32_t> feature_ids;

  auto span_of = [&arena](size_t begin, size_t end) {
    return std::span<const uint32_t>(arena.data() + begin, end - begin);
  };

  for (size_t q = 0; q < raw.size(); ++q) {
    QueryFeatures& f = cache.features_[q];
    f.sql = std::move(raw[q].sql);

    const size_t seq_begin = arena.size();
    for (std::string& lexeme : raw[q].token_seq) {
      auto [it, inserted] = token_ids.emplace(
          std::move(lexeme), static_cast<uint32_t>(token_ids.size()));
      (void)inserted;
      arena.push_back(it->second);
    }
    const size_t seq_end = arena.size();

    // token_ids: sorted unique copy of the sequence, built in place at the
    // arena tail (resize-down after unique only ever trims the tail).
    const size_t ids_begin = seq_end;
    for (size_t t = seq_begin; t < seq_end; ++t) arena.push_back(arena[t]);
    std::sort(arena.begin() + ids_begin, arena.end());
    arena.erase(std::unique(arena.begin() + ids_begin, arena.end()),
                arena.end());
    const size_t ids_end = arena.size();

    const size_t st_begin = ids_end;
    for (sql::Feature& feature : raw[q].structure) {
      auto [it, inserted] = feature_ids.emplace(
          std::move(feature), static_cast<uint32_t>(feature_ids.size()));
      (void)inserted;
      arena.push_back(it->second);
    }
    std::sort(arena.begin() + st_begin, arena.end());
    const size_t st_end = arena.size();

    f.token_seq = span_of(seq_begin, seq_end);
    f.token_ids = span_of(ids_begin, ids_end);
    f.structure_ids = span_of(st_begin, st_end);
  }
  return cache;
}

Result<FeatureCache> FeatureCache::Compute(
    const std::vector<sql::SelectQuery>& queries) {
  std::vector<RawQueryFeatures> raw;
  raw.reserve(queries.size());
  for (const sql::SelectQuery& q : queries) {
    DPE_ASSIGN_OR_RETURN(RawQueryFeatures r, ExtractRawFeatures(q));
    raw.push_back(std::move(r));
  }
  return Intern(std::move(raw));
}

}  // namespace dpe::distance
