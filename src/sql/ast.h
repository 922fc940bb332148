// Abstract syntax tree for the SQL subset of the query logs: one SELECT
// statement, its clauses as SelectQuery lists them.
//
// The AST is the canonical in-memory form of a query: the lexer/parser build
// it, the printer serializes it back to canonical SQL text, the KIT-DPE log
// encryptor rewrites it (encrypting names and constants in place), and the
// relational executor evaluates it.

#ifndef DPE_SQL_AST_H_
#define DPE_SQL_AST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hex.h"

namespace dpe::sql {

/// Typed SQL constant.
class Literal {
 public:
  enum class Kind { kInt, kDouble, kString };

  Literal() : kind_(Kind::kInt), int_value_(0), double_value_(0) {}
  static Literal Int(int64_t v);
  static Literal Double(double v);
  static Literal String(std::string v);

  Kind kind() const { return kind_; }
  int64_t int_value() const { return int_value_; }
  double double_value() const { return double_value_; }
  const std::string& string_value() const { return string_value_; }

  /// SQL literal text: 42 | 3.14 | 'abc' (with '' quote escaping).
  std::string ToSql() const;

  /// Injective, type-tagged byte encoding ("i:", "d:", "s:" prefixes); the
  /// plaintext fed to DET/PROB constant encryption. Injectivity here is what
  /// makes encrypted token sets bijective images of plaintext token sets.
  Bytes CanonicalBytes() const;

  /// Inverse of CanonicalBytes.
  static Result<Literal> FromCanonicalBytes(std::string_view bytes);

  bool operator==(const Literal& other) const;
  bool operator!=(const Literal& other) const { return !(*this == other); }
  /// Total order: by kind, then value (used in ordered containers).
  bool operator<(const Literal& other) const;

 private:
  Kind kind_;
  int64_t int_value_;
  double double_value_;
  std::string string_value_;
};

/// Possibly-qualified column reference ("r.a" or "a").
struct ColumnRef {
  std::string relation;  ///< empty when unqualified
  std::string name;

  std::string ToSql() const {
    return relation.empty() ? name : relation + "." + name;
  }
  bool operator==(const ColumnRef& other) const {
    return relation == other.relation && name == other.name;
  }
  bool operator<(const ColumnRef& other) const {
    return std::tie(relation, name) < std::tie(other.relation, other.name);
  }
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// "=", "<>", "<", "<=", ">", ">=".
const char* CompareOpSql(CompareOp op);

struct Predicate;
using PredicatePtr = std::unique_ptr<Predicate>;

/// Predicate tree node.
struct Predicate {
  enum class Kind {
    kCompare,        ///< column op literal
    kColumnCompare,  ///< column op column (join predicates)
    kBetween,        ///< column BETWEEN low AND high
    kIn,             ///< column IN (l1, ..., lk)
    kAnd,
    kOr,
    kNot,
  };

  Kind kind;
  ColumnRef column;              // kCompare/kColumnCompare/kBetween/kIn
  CompareOp op = CompareOp::kEq; // kCompare/kColumnCompare
  Literal literal;               // kCompare
  ColumnRef column2;             // kColumnCompare
  Literal low, high;             // kBetween
  std::vector<Literal> in_list;  // kIn
  std::vector<PredicatePtr> children;  // kAnd/kOr (n-ary), kNot (unary)

  static PredicatePtr Compare(ColumnRef c, CompareOp op, Literal l);
  static PredicatePtr ColumnCompare(ColumnRef a, CompareOp op, ColumnRef b);
  static PredicatePtr Between(ColumnRef c, Literal lo, Literal hi);
  static PredicatePtr In(ColumnRef c, std::vector<Literal> values);
  static PredicatePtr And(std::vector<PredicatePtr> children);
  static PredicatePtr Or(std::vector<PredicatePtr> children);
  static PredicatePtr Not(PredicatePtr child);

  PredicatePtr Clone() const;
  bool Equals(const Predicate& other) const;

  /// Column refs of the tree's atoms, left to right; a column-column
  /// compare contributes both sides.
  std::vector<ColumnRef> Columns() const;
};

enum class AggFn { kNone, kCount, kSum, kAvg, kMin, kMax };

/// "COUNT", "SUM", ... (empty for kNone).
const char* AggFnSql(AggFn fn);

/// One item of the SELECT list: *, column, or AGG(column) / COUNT(*).
struct SelectItem {
  bool star = false;  ///< SELECT * (agg == kNone) or COUNT(*) (agg == kCount)
  AggFn agg = AggFn::kNone;
  ColumnRef column;

  static SelectItem Star() { return {true, AggFn::kNone, {}}; }
  static SelectItem Col(ColumnRef c) { return {false, AggFn::kNone, std::move(c)}; }
  static SelectItem Agg(AggFn fn, ColumnRef c) { return {false, fn, std::move(c)}; }
  static SelectItem CountStar() { return {true, AggFn::kCount, {}}; }

  bool operator==(const SelectItem& other) const {
    return star == other.star && agg == other.agg && column == other.column;
  }
};

struct TableRef {
  std::string name;
  std::string alias;  ///< empty when none

  bool operator==(const TableRef& other) const {
    return name == other.name && alias == other.alias;
  }
};

/// INNER JOIN <table> ON <left> = <right>.
struct JoinClause {
  TableRef table;
  ColumnRef left;
  ColumnRef right;

  bool operator==(const JoinClause& other) const {
    return table == other.table && left == other.left && right == other.right;
  }
};

struct OrderItem {
  ColumnRef column;
  bool ascending = true;

  bool operator==(const OrderItem& other) const {
    return column == other.column && ascending == other.ascending;
  }
};

/// A SELECT query (the only statement kind in SQL query-log mining).
struct SelectQuery {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  PredicatePtr where;  ///< null when absent
  std::vector<ColumnRef> group_by;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  SelectQuery() = default;
  SelectQuery(SelectQuery&&) = default;
  SelectQuery& operator=(SelectQuery&&) = default;
  SelectQuery(const SelectQuery& other) { *this = other.CloneValue(); }
  SelectQuery& operator=(const SelectQuery& other) {
    if (this != &other) *this = other.CloneValue();
    return *this;
  }

  SelectQuery CloneValue() const;
  bool Equals(const SelectQuery& other) const;

  /// All column refs mentioned anywhere (select list, predicates, group/order).
  std::vector<ColumnRef> Columns() const;
};

/// Column resolution for one query, shared by everything that keys a column
/// reference to the attribute it denotes ("rel.attr": the onion layout, the
/// constant keys, the encrypted domains, the access areas). Qualifiers are
/// relation names and aliases. The executor binds columns to row positions
/// on its own (db/expr_eval.h) and also accepts an unqualified column that is
/// unambiguous across a join; this scope does not.
class QueryScope {
 public:
  explicit QueryScope(const SelectQuery& query);

  /// Relation names in scope: FROM, then each JOIN, in order.
  const std::vector<std::string>& relations() const { return relations_; }

  /// The relation `c` denotes: its qualifier's, or the only relation in
  /// scope when `c` is unqualified. ExecutionError for an unknown qualifier
  /// or an unqualified column among several relations.
  Result<std::string> RelationOf(const ColumnRef& c) const;

  /// "rel.attr" of `c`, with the relation as RelationOf resolves it.
  Result<std::string> ColumnKey(const ColumnRef& c) const;

 private:
  std::vector<std::string> relations_;
  std::map<std::string, std::string> qualifier_to_relation_;
};

}  // namespace dpe::sql

#endif  // DPE_SQL_AST_H_
