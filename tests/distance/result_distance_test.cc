#include "distance/result_distance.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <vector>

#include "distance/features.h"
#include "sql/parser.h"

namespace dpe::distance {
namespace {

class ResultDistanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db::Table t("t", db::TableSchema({{"id", db::ColumnType::kInt},
                                      {"grp", db::ColumnType::kString}}));
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(t.Append({db::Value::Int(i),
                            db::Value::String(i <= 5 ? "low" : "high")})
                      .ok());
    }
    ASSERT_TRUE(db_.CreateTable(std::move(t)).ok());
    ctx_.database = &db_;
  }

  double D(const std::string& a, const std::string& b) {
    return measure_
        .Distance(sql::Parse(a).value(), sql::Parse(b).value(), ctx_)
        .value();
  }

  db::Database db_;
  MeasureContext ctx_;
  ResultDistance measure_;
};

TEST_F(ResultDistanceTest, EquivalentQueriesHaveDistanceZero) {
  // Different syntax, same result set.
  EXPECT_EQ(D("SELECT id FROM t WHERE id <= 5",
              "SELECT id FROM t WHERE grp = 'low'"),
            0.0);
}

TEST_F(ResultDistanceTest, DisjointResultsHaveDistanceOne) {
  EXPECT_EQ(D("SELECT id FROM t WHERE id <= 5", "SELECT id FROM t WHERE id > 5"),
            1.0);
}

TEST_F(ResultDistanceTest, OverlapCounts) {
  // {1..6} vs {4..10}: intersection {4,5,6} = 3, union 10 -> d = 0.7.
  EXPECT_DOUBLE_EQ(
      D("SELECT id FROM t WHERE id <= 6", "SELECT id FROM t WHERE id >= 4"),
      0.7);
}

TEST_F(ResultDistanceTest, SetSemanticsIgnoreDuplicatesAndOrder) {
  EXPECT_EQ(D("SELECT grp FROM t", "SELECT DISTINCT grp FROM t"), 0.0);
  EXPECT_EQ(D("SELECT id FROM t ORDER BY id DESC", "SELECT id FROM t"), 0.0);
}

TEST_F(ResultDistanceTest, DifferentArityTuplesAreDisjoint) {
  EXPECT_EQ(D("SELECT id FROM t WHERE id = 1", "SELECT id, grp FROM t WHERE id = 1"),
            1.0);
}

TEST_F(ResultDistanceTest, RequiresDatabase) {
  ResultDistance measure;
  MeasureContext empty;
  const std::vector<sql::SelectQuery> log = {
      sql::Parse("SELECT id FROM t").value()};
  EXPECT_FALSE(measure.Distance(log[0], log[0], empty).ok());
  auto features = FeatureCache::Compute(log).value();
  EXPECT_EQ(measure.Prepare(log, features, empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ResultDistanceTest, ExecutionErrorsPropagate) {
  const std::vector<sql::SelectQuery> log = {
      sql::Parse("SELECT id FROM t").value(),
      sql::Parse("SELECT id FROM missing").value()};
  EXPECT_FALSE(measure_.Distance(log[0], log[1], ctx_).ok());
  // The prepared path reports the same failure, before any pair.
  auto features = FeatureCache::Compute(log).value();
  EXPECT_FALSE(measure_.Prepare(log, features, ctx_).ok());
}

TEST_F(ResultDistanceTest, SharedInformationDeclaresDbContent) {
  EXPECT_TRUE(measure_.Shared().db_content);
}

// One measure, two databases built one after the other at one address: the
// second answer must come from the second database. A memo keyed by the
// database address and the SQL text would still answer 0.7 here.
TEST_F(ResultDistanceTest, AnswersFromTheDatabaseItIsGiven) {
  const auto make_db = [](std::initializer_list<int> ids) {
    db::Database database;
    db::Table t("t", db::TableSchema({{"id", db::ColumnType::kInt}}));
    for (int id : ids) EXPECT_TRUE(t.Append({db::Value::Int(id)}).ok());
    EXPECT_TRUE(database.CreateTable(std::move(t)).ok());
    return database;
  };
  const std::vector<sql::SelectQuery> log = {
      sql::Parse("SELECT id FROM t WHERE id <= 6").value(),
      sql::Parse("SELECT id FROM t WHERE id >= 4").value()};
  std::optional<db::Database> database;
  MeasureContext ctx;

  database.emplace(make_db({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  ctx.database = &*database;
  // {1..6} vs {4..10}: intersection 3, union 10.
  EXPECT_DOUBLE_EQ(measure_.Distance(log[0], log[1], ctx).value(), 0.7);

  database.reset();
  database.emplace(make_db({1, 2, 3, 7, 8, 9}));
  ASSERT_EQ(&*database, ctx.database);
  // {1, 2, 3} vs {7, 8, 9}: disjoint.
  EXPECT_EQ(measure_.Distance(log[0], log[1], ctx).value(), 1.0);
  auto features = FeatureCache::Compute(log).value();
  auto prepared = measure_.Prepare(log, features, ctx);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ((*prepared)->Distance(0, 1), 1.0);
}

}  // namespace
}  // namespace dpe::distance
