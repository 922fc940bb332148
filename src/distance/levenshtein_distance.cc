#include "distance/levenshtein_distance.h"

#include <algorithm>
#include <string_view>

#include "common/simd.h"
#include "distance/features.h"
#include "sql/lexer.h"
#include "sql/printer.h"

namespace dpe::distance {

namespace {

double Normalized(size_t edits, size_t len_a, size_t len_b) {
  const size_t longest = std::max(len_a, len_b);
  if (longest == 0) return 0.0;
  return static_cast<double>(edits) / static_cast<double>(longest);
}

/// Myers' bit-parallel edit distance over the cached features of two log
/// indices: the exact integer EditDistance computes.
class EditDistanceLog final : public PreparedLog {
 public:
  EditDistanceLog(const FeatureCache& features,
                  LevenshteinDistance::Granularity granularity)
      : features_(features), granularity_(granularity) {}

  double Distance(size_t i, size_t j) const override {
    const QueryFeatures& f1 = features_[i];
    const QueryFeatures& f2 = features_[j];
    if (granularity_ == LevenshteinDistance::Granularity::kTokenSequence) {
      return Normalized(common::simd::EditDistanceU32(
                            f1.token_seq.data(), f1.token_seq.size(),
                            f2.token_seq.data(), f2.token_seq.size()),
                        f1.token_seq.size(), f2.token_seq.size());
    }
    const std::string_view s1 = f1.sql, s2 = f2.sql;
    return Normalized(common::simd::EditDistanceBytes(s1.data(), s1.size(),
                                                      s2.data(), s2.size()),
                      s1.size(), s2.size());
  }

 private:
  const FeatureCache& features_;
  LevenshteinDistance::Granularity granularity_;
};

}  // namespace

Result<std::unique_ptr<PreparedLog>> LevenshteinDistance::Prepare(
    std::span<const sql::SelectQuery> queries, const FeatureCache& features,
    const MeasureContext& context) const {
  (void)queries;
  (void)context;
  return {std::make_unique<EditDistanceLog>(features, granularity_)};
}

Result<double> LevenshteinDistance::Distance(const sql::SelectQuery& q1,
                                             const sql::SelectQuery& q2,
                                             const MeasureContext& context) const {
  (void)context;
  const std::string s1 = sql::ToSql(q1);
  const std::string s2 = sql::ToSql(q2);
  std::vector<std::string> a, b;
  if (granularity_ == Granularity::kTokenSequence) {
    DPE_ASSIGN_OR_RETURN(auto t1, sql::Lex(s1));
    DPE_ASSIGN_OR_RETURN(auto t2, sql::Lex(s2));
    for (const auto& t : t1) a.push_back(t.lexeme);
    for (const auto& t : t2) b.push_back(t.lexeme);
  } else {
    for (char c : s1) a.emplace_back(1, c);
    for (char c : s2) b.emplace_back(1, c);
  }
  return Normalized(EditDistance(a, b), a.size(), b.size());
}

}  // namespace dpe::distance
