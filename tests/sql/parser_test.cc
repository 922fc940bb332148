#include "sql/parser.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "sql/printer.h"

namespace dpe::sql {
namespace {

TEST(ParserTest, MinimalSelect) {
  auto q = Parse("SELECT a FROM r").value();
  ASSERT_EQ(q.items.size(), 1u);
  EXPECT_EQ(q.items[0].column.name, "a");
  EXPECT_EQ(q.from.name, "r");
  EXPECT_EQ(q.where, nullptr);
}

TEST(ParserTest, PaperExample4) {
  auto q = Parse("SELECT A1 FROM R WHERE A2 > 5").value();
  EXPECT_EQ(q.items[0].column.name, "a1");
  EXPECT_EQ(q.from.name, "r");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, Predicate::Kind::kCompare);
  EXPECT_EQ(q.where->column.name, "a2");
  EXPECT_EQ(q.where->op, CompareOp::kGt);
  EXPECT_EQ(q.where->literal, Literal::Int(5));
}

TEST(ParserTest, StarAndDistinct) {
  auto q = Parse("SELECT DISTINCT * FROM t").value();
  EXPECT_TRUE(q.distinct);
  EXPECT_TRUE(q.items[0].star);
}

TEST(ParserTest, Aggregates) {
  auto q = Parse("SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(w) FROM t").value();
  ASSERT_EQ(q.items.size(), 5u);
  EXPECT_EQ(q.items[0].agg, AggFn::kCount);
  EXPECT_TRUE(q.items[0].star);
  EXPECT_EQ(q.items[1].agg, AggFn::kSum);
  EXPECT_EQ(q.items[1].column.name, "x");
  EXPECT_EQ(q.items[2].agg, AggFn::kAvg);
  EXPECT_EQ(q.items[3].agg, AggFn::kMin);
  EXPECT_EQ(q.items[4].agg, AggFn::kMax);
}

TEST(ParserTest, OnlyCountTakesStar) {
  EXPECT_FALSE(Parse("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, JoinWithQualifiedColumns) {
  auto q = Parse(
              "SELECT orders.oid, customers.city FROM orders "
              "JOIN customers ON orders.cid = customers.cid "
              "WHERE customers.city = 'berlin'")
              .value();
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].table.name, "customers");
  EXPECT_EQ(q.joins[0].left.relation, "orders");
  EXPECT_EQ(q.joins[0].left.name, "cid");
  EXPECT_EQ(q.joins[0].right.relation, "customers");
}

TEST(ParserTest, InnerJoinKeyword) {
  auto q = Parse("SELECT a.x FROM a INNER JOIN b ON a.k = b.k").value();
  EXPECT_EQ(q.joins.size(), 1u);
}

TEST(ParserTest, BooleanStructureWithPrecedence) {
  auto q = Parse("SELECT a FROM r WHERE x = 1 AND y = 2 OR z = 3").value();
  // OR binds loosest: (x=1 AND y=2) OR z=3.
  ASSERT_EQ(q.where->kind, Predicate::Kind::kOr);
  ASSERT_EQ(q.where->children.size(), 2u);
  EXPECT_EQ(q.where->children[0]->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(q.where->children[1]->kind, Predicate::Kind::kCompare);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto q = Parse("SELECT a FROM r WHERE x = 1 AND (y = 2 OR z = 3)").value();
  ASSERT_EQ(q.where->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(q.where->children[1]->kind, Predicate::Kind::kOr);
}

TEST(ParserTest, NotBetweenIn) {
  auto q = Parse(
              "SELECT a FROM r WHERE NOT x = 1 AND y BETWEEN 2 AND 8 "
              "AND z IN (1, 2, 3)")
              .value();
  ASSERT_EQ(q.where->kind, Predicate::Kind::kAnd);
  ASSERT_EQ(q.where->children.size(), 3u);
  EXPECT_EQ(q.where->children[0]->kind, Predicate::Kind::kNot);
  EXPECT_EQ(q.where->children[1]->kind, Predicate::Kind::kBetween);
  EXPECT_EQ(q.where->children[1]->low, Literal::Int(2));
  EXPECT_EQ(q.where->children[2]->kind, Predicate::Kind::kIn);
  EXPECT_EQ(q.where->children[2]->in_list.size(), 3u);
}

TEST(ParserTest, ColumnToColumnComparison) {
  auto q = Parse("SELECT a FROM r WHERE x = y").value();
  EXPECT_EQ(q.where->kind, Predicate::Kind::kColumnCompare);
  EXPECT_EQ(q.where->column.name, "x");
  EXPECT_EQ(q.where->column2.name, "y");
}

TEST(ParserTest, GroupOrderLimit) {
  auto q = Parse(
              "SELECT city, COUNT(*) FROM customers WHERE age > 30 "
              "GROUP BY city ORDER BY city DESC LIMIT 10")
              .value();
  ASSERT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.group_by[0].name, "city");
  ASSERT_EQ(q.order_by.size(), 1u);
  EXPECT_FALSE(q.order_by[0].ascending);
  EXPECT_EQ(q.limit.value(), 10);
}

TEST(ParserTest, OutOfRangeLimitIsAParseError) {
  // LIMIT reads its integer as a predicate literal does: digits past
  // int64_t are a ParseError, not a saturated limit.
  auto limit = Parse("SELECT a FROM r LIMIT 99999999999999999999");
  EXPECT_EQ(limit.status().code(), StatusCode::kParseError);
  auto literal = Parse("SELECT a FROM r WHERE x = 99999999999999999999");
  EXPECT_EQ(literal.status().code(), StatusCode::kParseError);
  auto largest = Parse("SELECT a FROM r LIMIT 9223372036854775807");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->limit.value(), INT64_MAX);
}

TEST(ParserTest, TableAlias) {
  auto q1 = Parse("SELECT c.x FROM customers c WHERE c.x = 1").value();
  EXPECT_EQ(q1.from.alias, "c");
  auto q2 = Parse("SELECT c.x FROM customers AS c").value();
  EXPECT_EQ(q2.from.alias, "c");
}

TEST(ParserTest, LiteralTypes) {
  auto q = Parse("SELECT a FROM r WHERE x = 5 AND y = 2.75 AND z = 'txt'").value();
  EXPECT_EQ(q.where->children[0]->literal, Literal::Int(5));
  EXPECT_EQ(q.where->children[1]->literal, Literal::Double(2.75));
  EXPECT_EQ(q.where->children[2]->literal, Literal::String("txt"));
}

TEST(ParserTest, NegativeConstants) {
  auto q = Parse("SELECT a FROM r WHERE x > -10").value();
  EXPECT_EQ(q.where->literal, Literal::Int(-10));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM r").ok());
  EXPECT_FALSE(Parse("SELECT a").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r trailing junk").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r JOIN s ON a < b").ok());  // only equi-join
}

TEST(ParserTest, CloneAndEquals) {
  auto q = Parse(
              "SELECT a, SUM(b) FROM r JOIN s ON r.k = s.k "
              "WHERE x BETWEEN 1 AND 5 OR NOT y = 2 GROUP BY a LIMIT 3")
              .value();
  SelectQuery copy = q.CloneValue();
  EXPECT_TRUE(q.Equals(copy));
  copy.limit = 4;
  EXPECT_FALSE(q.Equals(copy));
}

}  // namespace
}  // namespace dpe::sql
