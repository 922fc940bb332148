#include "sql/ast.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/status.h"

namespace dpe::sql {

Literal Literal::Int(int64_t v) {
  Literal l;
  l.kind_ = Kind::kInt;
  l.int_value_ = v;
  return l;
}

Literal Literal::Double(double v) {
  Literal l;
  l.kind_ = Kind::kDouble;
  l.double_value_ = v;
  return l;
}

Literal Literal::String(std::string v) {
  Literal l;
  l.kind_ = Kind::kString;
  l.string_value_ = std::move(v);
  return l;
}

namespace {
/// Canonical shortest round-trip text for a double.
std::string DoubleToCanonical(double v) {
  char buf[64];
  // %.17g round-trips; try shorter representations first.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double parsed = std::strtod(buf, nullptr);
    if (parsed == v) break;
  }
  std::string s(buf);
  // Ensure the lexer sees a float (needs '.' or exponent).
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find('E') == std::string::npos && s.find("inf") == std::string::npos &&
      s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}
}  // namespace

std::string Literal::ToSql() const {
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(int_value_);
    case Kind::kDouble:
      return DoubleToCanonical(double_value_);
    case Kind::kString: {
      std::string out = "'";
      for (char c : string_value_) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  return "";
}

Bytes Literal::CanonicalBytes() const {
  switch (kind_) {
    case Kind::kInt:
      return "i:" + std::to_string(int_value_);
    case Kind::kDouble:
      return "d:" + DoubleToCanonical(double_value_);
    case Kind::kString:
      return "s:" + string_value_;
  }
  return "";
}

Result<Literal> Literal::FromCanonicalBytes(std::string_view bytes) {
  if (bytes.size() < 2 || bytes[1] != ':') {
    return Status::InvalidArgument("malformed canonical literal encoding");
  }
  std::string_view body = bytes.substr(2);
  switch (bytes[0]) {
    case 'i': {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(body.begin(), body.end(), v);
      if (ec != std::errc() || ptr != body.end()) {
        return Status::InvalidArgument("bad int literal encoding");
      }
      return Literal::Int(v);
    }
    case 'd': {
      std::string s(body);
      char* end = nullptr;
      double v = std::strtod(s.c_str(), &end);
      if (end != s.c_str() + s.size()) {
        return Status::InvalidArgument("bad double literal encoding");
      }
      return Literal::Double(v);
    }
    case 's':
      return Literal::String(std::string(body));
    default:
      return Status::InvalidArgument("unknown literal type tag");
  }
}

bool Literal::operator==(const Literal& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kInt:
      return int_value_ == other.int_value_;
    case Kind::kDouble:
      return double_value_ == other.double_value_;
    case Kind::kString:
      return string_value_ == other.string_value_;
  }
  return false;
}

bool Literal::operator<(const Literal& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case Kind::kInt:
      return int_value_ < other.int_value_;
    case Kind::kDouble:
      return double_value_ < other.double_value_;
    case Kind::kString:
      return string_value_ < other.string_value_;
  }
  return false;
}

const char* CompareOpSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr Predicate::Compare(ColumnRef c, CompareOp op, Literal l) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kCompare;
  p->column = std::move(c);
  p->op = op;
  p->literal = std::move(l);
  return p;
}

PredicatePtr Predicate::ColumnCompare(ColumnRef a, CompareOp op, ColumnRef b) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kColumnCompare;
  p->column = std::move(a);
  p->op = op;
  p->column2 = std::move(b);
  return p;
}

PredicatePtr Predicate::Between(ColumnRef c, Literal lo, Literal hi) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kBetween;
  p->column = std::move(c);
  p->low = std::move(lo);
  p->high = std::move(hi);
  return p;
}

PredicatePtr Predicate::In(ColumnRef c, std::vector<Literal> values) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kIn;
  p->column = std::move(c);
  p->in_list = std::move(values);
  return p;
}

PredicatePtr Predicate::And(std::vector<PredicatePtr> children) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kAnd;
  p->children = std::move(children);
  return p;
}

PredicatePtr Predicate::Or(std::vector<PredicatePtr> children) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kOr;
  p->children = std::move(children);
  return p;
}

PredicatePtr Predicate::Not(PredicatePtr child) {
  auto p = std::make_unique<Predicate>();
  p->kind = Kind::kNot;
  p->children.push_back(std::move(child));
  return p;
}

PredicatePtr Predicate::Clone() const {
  auto p = std::make_unique<Predicate>();
  p->kind = kind;
  p->column = column;
  p->op = op;
  p->literal = literal;
  p->column2 = column2;
  p->low = low;
  p->high = high;
  p->in_list = in_list;
  for (const auto& c : children) p->children.push_back(c->Clone());
  return p;
}

bool Predicate::Equals(const Predicate& other) const {
  if (kind != other.kind) return false;
  if (!(column == other.column)) return false;
  if (op != other.op) return false;
  if (literal != other.literal) return false;
  if (!(column2 == other.column2)) return false;
  if (low != other.low || high != other.high) return false;
  if (in_list != other.in_list) return false;
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

const char* AggFnSql(AggFn fn) {
  switch (fn) {
    case AggFn::kNone:
      return "";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kAvg:
      return "AVG";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
  }
  return "";
}

SelectQuery SelectQuery::CloneValue() const {
  SelectQuery q;
  q.distinct = distinct;
  q.items = items;
  q.from = from;
  q.joins = joins;
  if (where) q.where = where->Clone();
  q.group_by = group_by;
  q.order_by = order_by;
  q.limit = limit;
  return q;
}

bool SelectQuery::Equals(const SelectQuery& other) const {
  if (distinct != other.distinct || !(from == other.from)) return false;
  if (items != other.items || joins != other.joins) return false;
  if (group_by != other.group_by || order_by != other.order_by) return false;
  if (limit != other.limit) return false;
  if ((where == nullptr) != (other.where == nullptr)) return false;
  if (where && !where->Equals(*other.where)) return false;
  return true;
}

namespace {
void CollectPredicateColumns(const Predicate& p, std::vector<ColumnRef>& out) {
  switch (p.kind) {
    case Predicate::Kind::kCompare:
    case Predicate::Kind::kBetween:
    case Predicate::Kind::kIn:
      out.push_back(p.column);
      break;
    case Predicate::Kind::kColumnCompare:
      out.push_back(p.column);
      out.push_back(p.column2);
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kNot:
      for (const auto& c : p.children) CollectPredicateColumns(*c, out);
      break;
  }
}
}  // namespace

std::vector<ColumnRef> Predicate::Columns() const {
  std::vector<ColumnRef> out;
  CollectPredicateColumns(*this, out);
  return out;
}

std::vector<ColumnRef> SelectQuery::Columns() const {
  std::vector<ColumnRef> out;
  for (const auto& item : items) {
    if (!item.star) out.push_back(item.column);
  }
  for (const auto& j : joins) {
    out.push_back(j.left);
    out.push_back(j.right);
  }
  if (where) CollectPredicateColumns(*where, out);
  for (const auto& c : group_by) out.push_back(c);
  for (const auto& o : order_by) out.push_back(o.column);
  return out;
}

QueryScope::QueryScope(const SelectQuery& query) {
  auto add = [this](const TableRef& t) {
    relations_.push_back(t.name);
    qualifier_to_relation_[t.name] = t.name;
    if (!t.alias.empty()) qualifier_to_relation_[t.alias] = t.name;
  };
  add(query.from);
  for (const JoinClause& j : query.joins) add(j.table);
}

Result<std::string> QueryScope::RelationOf(const ColumnRef& c) const {
  if (!c.relation.empty()) {
    auto it = qualifier_to_relation_.find(c.relation);
    if (it == qualifier_to_relation_.end()) {
      return Status::ExecutionError("unknown qualifier " + c.relation);
    }
    return it->second;
  }
  if (relations_.size() == 1) return relations_.front();
  return Status::ExecutionError("unqualified column " + c.name +
                                " in multi-relation query");
}

Result<std::string> QueryScope::ColumnKey(const ColumnRef& c) const {
  DPE_ASSIGN_OR_RETURN(std::string relation, RelationOf(c));
  return relation + "." + c.name;
}

}  // namespace dpe::sql
