#include "db/access_area.h"

#include <set>

namespace dpe::db {

void DomainRegistry::Set(const std::string& column_key, Domain domain) {
  domains_[column_key] = std::move(domain);
}

Result<Domain> DomainRegistry::Get(const std::string& column_key) const {
  auto it = domains_.find(column_key);
  if (it == domains_.end()) {
    return Status::NotFound("no domain registered for " + column_key);
  }
  return it->second;
}

bool DomainRegistry::Has(const std::string& column_key) const {
  return domains_.contains(column_key);
}

namespace {

using sql::CompareOp;
using sql::Predicate;
using sql::PredicatePtr;

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

/// Pushes NOT down to atoms (negation normal form).
PredicatePtr ToNnf(const Predicate& p, bool negated) {
  switch (p.kind) {
    case Predicate::Kind::kCompare: {
      auto out = p.Clone();
      if (negated) out->op = NegateOp(out->op);
      return out;
    }
    case Predicate::Kind::kColumnCompare: {
      auto out = p.Clone();
      if (negated) out->op = NegateOp(out->op);
      return out;
    }
    case Predicate::Kind::kBetween: {
      if (!negated) return p.Clone();
      // NOT (a BETWEEN lo AND hi)  ==  a < lo OR a > hi.
      std::vector<PredicatePtr> children;
      children.push_back(Predicate::Compare(p.column, CompareOp::kLt, p.low));
      children.push_back(Predicate::Compare(p.column, CompareOp::kGt, p.high));
      return Predicate::Or(std::move(children));
    }
    case Predicate::Kind::kIn: {
      if (!negated) return p.Clone();
      // NOT (a IN (v1..vk))  ==  a <> v1 AND ... AND a <> vk.
      std::vector<PredicatePtr> children;
      for (const auto& v : p.in_list) {
        children.push_back(Predicate::Compare(p.column, CompareOp::kNe, v));
      }
      if (children.empty()) return Predicate::And({});  // vacuously true
      return Predicate::And(std::move(children));
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      std::vector<PredicatePtr> children;
      for (const auto& c : p.children) {
        children.push_back(ToNnf(*c, negated));
      }
      const bool as_and = (p.kind == Predicate::Kind::kAnd) != negated;
      return as_and ? Predicate::And(std::move(children))
                    : Predicate::Or(std::move(children));
    }
    case Predicate::Kind::kNot:
      return ToNnf(*p.children[0], !negated);
  }
  return p.Clone();
}

/// Interval set of one comparison atom, clipped to the universe.
IntervalSet AtomArea(CompareOp op, const Value& v, const IntervalSet& universe) {
  IntervalSet raw;
  switch (op) {
    case CompareOp::kEq:
      raw = IntervalSet::Of(Interval::Point(v));
      break;
    case CompareOp::kNe:
      raw = IntervalSet::Of(Interval::Point(v)).Complement();
      break;
    case CompareOp::kLt:
      raw = IntervalSet::Of(Interval::LessThan(v, false));
      break;
    case CompareOp::kLe:
      raw = IntervalSet::Of(Interval::LessThan(v, true));
      break;
    case CompareOp::kGt:
      raw = IntervalSet::Of(Interval::GreaterThan(v, false));
      break;
    case CompareOp::kGe:
      raw = IntervalSet::Of(Interval::GreaterThan(v, true));
      break;
  }
  return raw.Intersect(universe);
}

/// Projects the NNF predicate onto one attribute.
Result<IntervalSet> ProjectArea(const Predicate& p, const std::string& attr_key,
                                const sql::QueryScope& scope,
                                const IntervalSet& universe) {
  switch (p.kind) {
    case Predicate::Kind::kCompare: {
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
      if (key != attr_key) return universe;
      return AtomArea(p.op, Value::FromLiteral(p.literal), universe);
    }
    case Predicate::Kind::kColumnCompare:
      // Join-style predicates do not constrain an attribute's domain region
      // on their own (they relate two attributes); both sides stay full.
      return universe;
    case Predicate::Kind::kBetween: {
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
      if (key != attr_key) return universe;
      IntervalSet raw = IntervalSet::Of(Interval::Closed(
          Value::FromLiteral(p.low), Value::FromLiteral(p.high)));
      return raw.Intersect(universe);
    }
    case Predicate::Kind::kIn: {
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
      if (key != attr_key) return universe;
      std::vector<Interval> points;
      for (const auto& v : p.in_list) {
        points.push_back(Interval::Point(Value::FromLiteral(v)));
      }
      return IntervalSet::OfAll(std::move(points)).Intersect(universe);
    }
    case Predicate::Kind::kAnd: {
      IntervalSet acc = universe;
      for (const auto& c : p.children) {
        DPE_ASSIGN_OR_RETURN(IntervalSet child,
                             ProjectArea(*c, attr_key, scope, universe));
        acc = acc.Intersect(child);
      }
      return acc;
    }
    case Predicate::Kind::kOr: {
      IntervalSet acc = IntervalSet::Empty();
      for (const auto& c : p.children) {
        DPE_ASSIGN_OR_RETURN(IntervalSet child,
                             ProjectArea(*c, attr_key, scope, universe));
        acc = acc.Union(child);
      }
      return acc;
    }
    case Predicate::Kind::kNot:
      return Status::Internal("NOT must not survive NNF normalization");
  }
  return Status::Internal("unreachable predicate kind");
}

}  // namespace

Result<std::map<std::string, IntervalSet>> AccessAreas(
    const sql::SelectQuery& query, const DomainRegistry& domains) {
  return AccessAreas(query, domains, AccessAreaOptions{});
}

Result<std::map<std::string, IntervalSet>> AccessAreas(
    const sql::SelectQuery& query, const DomainRegistry& domains,
    const AccessAreaOptions& options) {
  const sql::QueryScope scope(query);

  // 1. Which attributes does the query access?
  std::set<std::string> accessed;
  auto add = [&](const sql::ColumnRef& c) -> Status {
    DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(c));
    accessed.insert(std::move(key));
    return Status::OK();
  };
  if (query.where) {
    for (const auto& c : query.where->Columns()) DPE_RETURN_NOT_OK(add(c));
  }
  for (const auto& j : query.joins) {
    DPE_RETURN_NOT_OK(add(j.left));
    DPE_RETURN_NOT_OK(add(j.right));
  }
  for (const auto& c : query.group_by) DPE_RETURN_NOT_OK(add(c));
  for (const auto& o : query.order_by) DPE_RETURN_NOT_OK(add(o.column));
  if (options.include_select_clause) {
    for (const auto& item : query.items) {
      if (!item.star) DPE_RETURN_NOT_OK(add(item.column));
    }
  }

  // 2. Project the WHERE predicate per accessed attribute.
  PredicatePtr nnf;
  if (query.where) nnf = ToNnf(*query.where, /*negated=*/false);

  std::map<std::string, IntervalSet> out;
  for (const std::string& key : accessed) {
    IntervalSet universe;
    if (options.clip_to_domain) {
      DPE_ASSIGN_OR_RETURN(Domain dom, domains.Get(key));
      universe = IntervalSet::Of(Interval::Closed(dom.min, dom.max));
    } else {
      universe = IntervalSet::All();
    }
    if (nnf) {
      DPE_ASSIGN_OR_RETURN(IntervalSet area,
                           ProjectArea(*nnf, key, scope, universe));
      out[key] = std::move(area);
    } else {
      out[key] = universe;
    }
  }
  return out;
}

}  // namespace dpe::db
