#include <gtest/gtest.h>

#include "sql/ast.h"
#include "sql/parser.h"

namespace dpe::sql {
namespace {

ColumnRef Col(std::string relation, std::string name) {
  return ColumnRef{std::move(relation), std::move(name)};
}

TEST(QueryScopeTest, RelationsAreFromThenEachJoinInOrder) {
  auto q = Parse("SELECT a.x FROM a JOIN c ON a.k = c.k JOIN b ON c.j = b.j")
               .value();
  EXPECT_EQ(QueryScope(q).relations(),
            (std::vector<std::string>{"a", "c", "b"}));
}

TEST(QueryScopeTest, QualifierResolvesByAliasAndByRelationName) {
  auto q = Parse("SELECT o.total FROM orders AS o JOIN customers c "
                 "ON o.cid = c.cid")
               .value();
  QueryScope scope(q);
  EXPECT_EQ(scope.RelationOf(Col("o", "total")).value(), "orders");
  EXPECT_EQ(scope.RelationOf(Col("c", "cid")).value(), "customers");
  EXPECT_EQ(scope.RelationOf(Col("orders", "total")).value(), "orders");
  EXPECT_EQ(scope.RelationOf(Col("customers", "cid")).value(), "customers");
}

TEST(QueryScopeTest, UnqualifiedColumnTakesTheOnlyRelation) {
  auto q = Parse("SELECT x FROM r AS t WHERE y = 1").value();
  EXPECT_EQ(QueryScope(q).RelationOf(Col("", "y")).value(), "r");
}

TEST(QueryScopeTest, UnqualifiedAmongSeveralAndUnknownQualifierFail) {
  auto q = Parse("SELECT a.x FROM a JOIN b ON a.k = b.k").value();
  QueryScope scope(q);
  Result<std::string> unqualified = scope.RelationOf(Col("", "x"));
  ASSERT_FALSE(unqualified.ok());
  EXPECT_EQ(unqualified.status().code(), StatusCode::kExecutionError);
  Result<std::string> unknown = scope.RelationOf(Col("z", "x"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(scope.ColumnKey(Col("z", "x")).status().code(),
            StatusCode::kExecutionError);
}

TEST(QueryScopeTest, ColumnKeyIsRelationDotAttribute) {
  auto q = Parse("SELECT o.total FROM orders o").value();
  QueryScope scope(q);
  EXPECT_EQ(scope.ColumnKey(Col("o", "total")).value(), "orders.total");
  EXPECT_EQ(scope.ColumnKey(Col("", "qty")).value(), "orders.qty");
}

TEST(QueryScopeTest, PredicateColumnsInTreeOrder) {
  auto q = Parse("SELECT a.x FROM a JOIN b ON a.k = b.k WHERE "
                 "(a.p = 1 OR NOT b.q BETWEEN 2 AND 3) AND a.r = b.s "
                 "AND b.t IN (4, 5)")
               .value();
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->Columns(),
            (std::vector<ColumnRef>{Col("a", "p"), Col("b", "q"),
                                    Col("a", "r"), Col("b", "s"),
                                    Col("b", "t")}));
}

}  // namespace
}  // namespace dpe::sql
