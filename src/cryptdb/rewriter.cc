#include "cryptdb/rewriter.h"

#include "common/hex.h"
#include "crypto/instrument.h"

namespace dpe::cryptdb {

using db::ColumnType;
using sql::ColumnRef;
using sql::Literal;
using sql::Predicate;
using sql::PredicatePtr;
using sql::SelectQuery;

Result<Literal> CoerceLiteral(ColumnType type, const Literal& lit) {
  switch (type) {
    case ColumnType::kInt:
      if (lit.kind() != Literal::Kind::kInt) {
        return Status::TypeError("expected int constant, got " + lit.ToSql());
      }
      return lit;
    case ColumnType::kDouble:
      if (lit.kind() == Literal::Kind::kInt) {
        return Literal::Double(static_cast<double>(lit.int_value()));
      }
      if (lit.kind() != Literal::Kind::kDouble) {
        return Status::TypeError("expected numeric constant, got " + lit.ToSql());
      }
      return lit;
    case ColumnType::kString:
      if (lit.kind() != Literal::Kind::kString) {
        return Status::TypeError("expected string constant, got " + lit.ToSql());
      }
      return lit;
  }
  return Status::Internal("bad column type");
}

Result<ColumnRef> QueryRewriter::RewriteColumn(
    const ColumnRef& c, const char* onion_suffix,
    const sql::QueryScope& scope) const {
  DPE_RETURN_NOT_OK(scope.RelationOf(c).status());
  ColumnRef out;
  // Keep the original qualifier structure: qualified stays qualified (with
  // the encrypted alias/relation text), unqualified stays unqualified.
  if (!c.relation.empty()) {
    out.relation = crypto_->EncryptRelName(c.relation);
  }
  out.name = crypto_->EncryptAttrName(c.name) + onion_suffix;
  return out;
}

Result<Literal> QueryRewriter::EncryptConstEq(const std::string& column_key,
                                              ColumnType type,
                                              const Literal& lit) const {
  DPE_ASSIGN_OR_RETURN(Literal coerced, CoerceLiteral(type, lit));
  obs::MetricsRegistry::Default()
      .counter("cryptdb.consts_encrypted", {{"onion", "eq"}})
      .Increment();
  DPE_ASSIGN_OR_RETURN(
      db::Value cell,
      crypto_->EncryptEq(column_key, db::Value::FromLiteral(coerced)));
  return Literal::String(cell.string_value());
}

Result<Literal> QueryRewriter::EncryptConstOrd(const std::string& column_key,
                                               ColumnType type,
                                               const Literal& lit) const {
  DPE_ASSIGN_OR_RETURN(Literal coerced, CoerceLiteral(type, lit));
  obs::MetricsRegistry::Default()
      .counter("cryptdb.consts_encrypted", {{"onion", "ord"}})
      .Increment();
  DPE_ASSIGN_OR_RETURN(
      db::Value cell,
      crypto_->EncryptOrd(column_key, db::Value::FromLiteral(coerced)));
  return Literal::String(cell.string_value());
}

Result<PredicatePtr> QueryRewriter::RewritePredicate(
    const Predicate& p, const sql::QueryScope& scope) const {
  using Kind = Predicate::Kind;
  switch (p.kind) {
    case Kind::kCompare: {
      DPE_ASSIGN_OR_RETURN(std::string rel, scope.RelationOf(p.column));
      const std::string key = rel + "." + p.column.name;
      DPE_ASSIGN_OR_RETURN(ColumnType type,
                           db::ColumnTypeOf(*schemas_, rel, p.column.name));
      const bool equality =
          p.op == sql::CompareOp::kEq || p.op == sql::CompareOp::kNe;
      const char* suffix = equality ? kEqSuffix : kOrdSuffix;
      DPE_ASSIGN_OR_RETURN(ColumnRef col, RewriteColumn(p.column, suffix, scope));
      DPE_ASSIGN_OR_RETURN(Literal lit,
                           equality ? EncryptConstEq(key, type, p.literal)
                                    : EncryptConstOrd(key, type, p.literal));
      return Predicate::Compare(std::move(col), p.op, std::move(lit));
    }
    case Kind::kColumnCompare: {
      if (p.op != sql::CompareOp::kEq) {
        return Status::Unimplemented(
            "encrypted column-column comparison supports only equality");
      }
      DPE_ASSIGN_OR_RETURN(ColumnRef a, RewriteColumn(p.column, kEqSuffix, scope));
      DPE_ASSIGN_OR_RETURN(ColumnRef b, RewriteColumn(p.column2, kEqSuffix, scope));
      return Predicate::ColumnCompare(std::move(a), p.op, std::move(b));
    }
    case Kind::kBetween: {
      DPE_ASSIGN_OR_RETURN(std::string rel, scope.RelationOf(p.column));
      const std::string key = rel + "." + p.column.name;
      DPE_ASSIGN_OR_RETURN(ColumnType type,
                           db::ColumnTypeOf(*schemas_, rel, p.column.name));
      DPE_ASSIGN_OR_RETURN(ColumnRef col, RewriteColumn(p.column, kOrdSuffix, scope));
      DPE_ASSIGN_OR_RETURN(Literal lo, EncryptConstOrd(key, type, p.low));
      DPE_ASSIGN_OR_RETURN(Literal hi, EncryptConstOrd(key, type, p.high));
      return Predicate::Between(std::move(col), std::move(lo), std::move(hi));
    }
    case Kind::kIn: {
      DPE_ASSIGN_OR_RETURN(std::string rel, scope.RelationOf(p.column));
      const std::string key = rel + "." + p.column.name;
      DPE_ASSIGN_OR_RETURN(ColumnType type,
                           db::ColumnTypeOf(*schemas_, rel, p.column.name));
      DPE_ASSIGN_OR_RETURN(ColumnRef col, RewriteColumn(p.column, kEqSuffix, scope));
      std::vector<Literal> values;
      for (const auto& v : p.in_list) {
        DPE_ASSIGN_OR_RETURN(Literal ev, EncryptConstEq(key, type, v));
        values.push_back(std::move(ev));
      }
      return Predicate::In(std::move(col), std::move(values));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<PredicatePtr> children;
      for (const auto& c : p.children) {
        DPE_ASSIGN_OR_RETURN(PredicatePtr rc, RewritePredicate(*c, scope));
        children.push_back(std::move(rc));
      }
      return p.kind == Kind::kAnd ? Predicate::And(std::move(children))
                                  : Predicate::Or(std::move(children));
    }
    case Kind::kNot: {
      DPE_ASSIGN_OR_RETURN(PredicatePtr child,
                           RewritePredicate(*p.children[0], scope));
      return Predicate::Not(std::move(child));
    }
  }
  return Status::Internal("unreachable predicate kind");
}

Result<SelectQuery> QueryRewriter::Rewrite(const SelectQuery& q) const {
  DPE_CRYPTO_COUNT("cryptdb", "rewrite");
  crypto::CryptoSpan rewrite_span("cryptdb.rewrite");
  const sql::QueryScope scope(q);
  SelectQuery out;
  out.distinct = q.distinct;

  // FROM / JOIN.
  out.from.name = crypto_->EncryptRelName(q.from.name);
  if (!q.from.alias.empty()) {
    out.from.alias = crypto_->EncryptRelName(q.from.alias);
  }
  for (const auto& j : q.joins) {
    sql::JoinClause ej;
    ej.table.name = crypto_->EncryptRelName(j.table.name);
    if (!j.table.alias.empty()) {
      ej.table.alias = crypto_->EncryptRelName(j.table.alias);
    }
    DPE_ASSIGN_OR_RETURN(ej.left, RewriteColumn(j.left, kEqSuffix, scope));
    DPE_ASSIGN_OR_RETURN(ej.right, RewriteColumn(j.right, kEqSuffix, scope));
    out.joins.push_back(std::move(ej));
  }

  // Select list. SELECT * expands to one explicit onion column per
  // plaintext column (relations in syntactic order), so the owner-side
  // decrypt plan and the encrypted projection agree on arity and order.
  const bool multi_relation = !q.joins.empty();
  for (const auto& item : q.items) {
    if (item.star && item.agg == sql::AggFn::kNone) {
      std::vector<sql::TableRef> tables;
      tables.push_back(q.from);
      for (const auto& j : q.joins) tables.push_back(j.table);
      for (const auto& tref : tables) {
        auto sit = schemas_->find(tref.name);
        if (sit == schemas_->end()) {
          return Status::NotFound("unknown relation " + tref.name);
        }
        const std::string qualifier =
            tref.alias.empty() ? tref.name : tref.alias;
        for (const auto& col : sit->second.columns()) {
          const std::string key = tref.name + "." + col.name;
          ColumnOnionConfig cfg = crypto_->layout().ConfigFor(key);
          const char* suffix = cfg.eq ? kEqSuffix
                                      : (cfg.rnd_only() ? kRndSuffix : kEqSuffix);
          ColumnRef out_col;
          if (multi_relation) {
            out_col.relation = crypto_->EncryptRelName(qualifier);
          }
          out_col.name = crypto_->EncryptAttrName(col.name) + suffix;
          out.items.push_back(sql::SelectItem::Col(std::move(out_col)));
        }
      }
      continue;
    }
    if (item.star && item.agg == sql::AggFn::kCount) {
      out.items.push_back(sql::SelectItem::CountStar());
      continue;
    }
    DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(item.column));
    const char* suffix = kEqSuffix;
    switch (item.agg) {
      case sql::AggFn::kSum:
      case sql::AggFn::kAvg:
        suffix = kAddSuffix;
        break;
      case sql::AggFn::kMin:
      case sql::AggFn::kMax:
        suffix = kOrdSuffix;
        break;
      case sql::AggFn::kCount:
        suffix = kEqSuffix;
        break;
      case sql::AggFn::kNone: {
        // Projection: EQ when available, RND otherwise.
        ColumnOnionConfig cfg = crypto_->layout().ConfigFor(key);
        suffix = cfg.eq ? kEqSuffix : (cfg.rnd_only() ? kRndSuffix : kEqSuffix);
        break;
      }
    }
    DPE_ASSIGN_OR_RETURN(ColumnRef col, RewriteColumn(item.column, suffix, scope));
    out.items.push_back(item.agg == sql::AggFn::kNone
                            ? sql::SelectItem::Col(std::move(col))
                            : sql::SelectItem::Agg(item.agg, std::move(col)));
  }

  // WHERE.
  if (q.where) {
    DPE_ASSIGN_OR_RETURN(out.where, RewritePredicate(*q.where, scope));
  }

  // GROUP BY on the EQ onion; ORDER BY on the ORD onion.
  for (const auto& c : q.group_by) {
    DPE_ASSIGN_OR_RETURN(ColumnRef col, RewriteColumn(c, kEqSuffix, scope));
    out.group_by.push_back(std::move(col));
  }
  for (const auto& o : q.order_by) {
    sql::OrderItem item;
    DPE_ASSIGN_OR_RETURN(item.column, RewriteColumn(o.column, kOrdSuffix, scope));
    item.ascending = o.ascending;
    out.order_by.push_back(std::move(item));
  }
  out.limit = q.limit;
  return out;
}

}  // namespace dpe::cryptdb
