#include <gtest/gtest.h>

#include "cryptdb/encrypted_db.h"
#include "sql/parser.h"

namespace dpe::cryptdb {
namespace {

using db::ColumnType;
using sql::AggFn;

const SchemaMap& Schemas() {
  static const SchemaMap schemas = [] {
    SchemaMap s;
    s["emp"] = db::TableSchema({{"id", ColumnType::kInt},
                                {"dept", ColumnType::kString},
                                {"salary", ColumnType::kDouble}});
    s["dept"] = db::TableSchema({{"id", ColumnType::kInt},
                                 {"name", ColumnType::kString},
                                 {"budget", ColumnType::kInt}});
    return s;
  }();
  return schemas;
}

Result<std::vector<OutputColumn>> Plan(const std::string& text) {
  return PlanOutput(sql::Parse(text).value(), Schemas());
}

/// "rel.attr:TYPE", wrapped in its aggregate, per output column.
std::vector<std::string> Describe(const std::vector<OutputColumn>& plan) {
  std::vector<std::string> out;
  for (const OutputColumn& c : plan) {
    std::string text = c.ColumnKey() + ":" + db::ColumnTypeName(c.type);
    if (c.agg != AggFn::kNone) {
      text = std::string(sql::AggFnSql(c.agg)) + "(" + text + ")";
    }
    out.push_back(std::move(text));
  }
  return out;
}

TEST(PlanOutputTest, StarOverJoinExpandsBothRelationsInOrder) {
  auto plan = Plan("SELECT * FROM emp JOIN dept ON emp.dept = dept.name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Describe(*plan),
            (std::vector<std::string>{
                "emp.id:INT", "emp.dept:STRING", "emp.salary:DOUBLE",
                "dept.id:INT", "dept.name:STRING", "dept.budget:INT"}));
}

TEST(PlanOutputTest, AliasQualifiedColumnReadsItsRelation) {
  auto plan = Plan("SELECT d.id, SUM(e.salary) FROM emp e JOIN dept AS d "
                   "ON e.dept = d.name GROUP BY d.id");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Describe(*plan), (std::vector<std::string>{
                                 "dept.id:INT", "SUM(emp.salary:DOUBLE)"}));
}

TEST(PlanOutputTest, UnqualifiedColumnInJoinTakesFirstRelationHavingIt) {
  auto plan = Plan("SELECT budget, id FROM emp JOIN dept "
                   "ON emp.dept = dept.name");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(Describe(*plan),
            (std::vector<std::string>{"dept.budget:INT", "emp.id:INT"}));
}

TEST(PlanOutputTest, CountStarReadsNoColumn) {
  auto plan = Plan("SELECT dept, COUNT(*) FROM emp GROUP BY dept");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->size(), 2u);
  EXPECT_EQ((*plan)[1].agg, AggFn::kCount);
  EXPECT_TRUE((*plan)[1].count_star);
  EXPECT_EQ((*plan)[1].relation, "");
  EXPECT_EQ((*plan)[1].type, ColumnType::kInt);
}

TEST(PlanOutputTest, UnknownColumnIsExecutionError) {
  for (const char* text :
       {"SELECT bonus FROM emp", "SELECT emp.budget FROM emp JOIN dept "
                                 "ON emp.dept = dept.name",
        "SELECT x.id FROM emp"}) {
    auto plan = Plan(text);
    ASSERT_FALSE(plan.ok()) << text;
    EXPECT_EQ(plan.status().code(), StatusCode::kExecutionError) << text;
  }
}

}  // namespace
}  // namespace dpe::cryptdb
