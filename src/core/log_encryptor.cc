#include "core/log_encryptor.h"

#include <functional>

#include "common/hex.h"
#include "crypto/det.h"
#include "crypto/hmac.h"
#include "crypto/paillier.h"
#include "crypto/prob.h"
#include "cryptdb/rewriter.h"
#include "distance/access_area_distance.h"
#include "distance/result_distance.h"
#include "distance/structure_distance.h"
#include "distance/token_distance.h"

namespace dpe::core {

using crypto::PpeClass;
using db::ColumnType;
using sql::ColumnRef;
using sql::Literal;
using sql::Predicate;
using sql::PredicatePtr;
using sql::SelectQuery;

const char* MeasureKindName(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kToken:
      return "token";
    case MeasureKind::kStructure:
      return "structure";
    case MeasureKind::kResult:
      return "result";
    case MeasureKind::kAccessArea:
      return "access-area";
  }
  return "?";
}

std::unique_ptr<distance::QueryDistanceMeasure> MakeMeasure(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kToken:
      return std::make_unique<distance::TokenDistance>();
    case MeasureKind::kStructure:
      return std::make_unique<distance::StructureDistance>();
    case MeasureKind::kResult:
      return std::make_unique<distance::ResultDistance>();
    case MeasureKind::kAccessArea:
      return std::make_unique<distance::AccessAreaDistance>(
          distance::AccessAreaDistance::CanonicalDpeOptions());
  }
  return nullptr;
}

std::string SchemeSpec::Describe() const {
  std::string out = std::string(MeasureKindName(measure)) + ": EncRel=" +
                    crypto::PpeClassName(enc_rel) + ", EncAttr=" +
                    crypto::PpeClassName(enc_attr) + ", EncConst=";
  switch (const_mode) {
    case ConstMode::kUniform:
      out += crypto::PpeClassName(uniform_const);
      out += global_const_key ? " (one shared key)" : " (per-attribute keys)";
      break;
    case ConstMode::kCryptDb:
      out += "via CryptDB";
      break;
    case ConstMode::kCryptDbNoHom:
      out += "via CryptDB, except HOM";
      break;
  }
  return out;
}

SchemeSpec CanonicalScheme(MeasureKind measure) {
  SchemeSpec spec;
  spec.measure = measure;
  spec.enc_rel = PpeClass::kDet;
  spec.enc_attr = PpeClass::kDet;
  switch (measure) {
    case MeasureKind::kToken:
      spec.const_mode = ConstMode::kUniform;
      spec.uniform_const = PpeClass::kDet;
      spec.global_const_key = true;  // tokens carry no attribute context
      break;
    case MeasureKind::kStructure:
      spec.const_mode = ConstMode::kUniform;
      spec.uniform_const = PpeClass::kProb;  // features drop constants
      spec.global_const_key = false;
      break;
    case MeasureKind::kResult:
      spec.const_mode = ConstMode::kCryptDb;
      spec.global_const_key = false;
      break;
    case MeasureKind::kAccessArea:
      spec.const_mode = ConstMode::kCryptDbNoHom;
      spec.global_const_key = false;
      break;
  }
  return spec;
}

namespace {

/// Union-find over column keys (join-group construction).
class UnionFind {
 public:
  std::string Find(const std::string& x) {
    auto it = parent_.find(x);
    if (it == parent_.end() || it->second == x) {
      parent_[x] = x;
      return x;
    }
    std::string root = Find(it->second);
    parent_[x] = root;
    return root;
  }
  void Union(const std::string& a, const std::string& b) {
    std::string ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[std::max(ra, rb)] = std::min(ra, rb);
  }
  bool Joined(const std::string& x) const { return parent_.contains(x); }

 private:
  std::map<std::string, std::string> parent_;
};

}  // namespace

Result<cryptdb::OnionLayout> DeriveOnionLayout(
    const std::vector<SelectQuery>& log, const cryptdb::SchemaMap& schemas) {
  cryptdb::OnionLayout layout;
  UnionFind join_groups;

  auto touch = [&](const std::string& key) -> cryptdb::ColumnOnionConfig& {
    return layout.columns[key];
  };

  std::function<Status(const Predicate&, const sql::QueryScope&)> walk_pred =
      [&](const Predicate& p, const sql::QueryScope& scope) -> Status {
    switch (p.kind) {
      case Predicate::Kind::kCompare: {
        DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
        if (p.op == sql::CompareOp::kEq || p.op == sql::CompareOp::kNe) {
          touch(key).eq = true;
        } else {
          touch(key).ord = true;
        }
        return Status::OK();
      }
      case Predicate::Kind::kColumnCompare: {
        DPE_ASSIGN_OR_RETURN(std::string k1, scope.ColumnKey(p.column));
        DPE_ASSIGN_OR_RETURN(std::string k2, scope.ColumnKey(p.column2));
        touch(k1).eq = true;
        touch(k2).eq = true;
        join_groups.Union(k1, k2);
        return Status::OK();
      }
      case Predicate::Kind::kBetween: {
        DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
        touch(key).ord = true;
        return Status::OK();
      }
      case Predicate::Kind::kIn: {
        DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(p.column));
        touch(key).eq = true;
        return Status::OK();
      }
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr:
      case Predicate::Kind::kNot:
        for (const auto& c : p.children) {
          DPE_RETURN_NOT_OK(walk_pred(*c, scope));
        }
        return Status::OK();
    }
    return Status::Internal("unreachable");
  };

  for (const SelectQuery& q : log) {
    const sql::QueryScope scope(q);
    for (const auto& item : q.items) {
      if (item.star && item.agg == sql::AggFn::kNone) {
        // SELECT *: every column of every relation in scope is projected.
        for (const std::string& rel : scope.relations()) {
          auto it = schemas.find(rel);
          if (it == schemas.end()) {
            return Status::NotFound("unknown relation " + rel);
          }
          for (const auto& col : it->second.columns()) {
            touch(rel + "." + col.name).eq = true;
          }
        }
        continue;
      }
      if (item.star) continue;  // COUNT(*)
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(item.column));
      switch (item.agg) {
        case sql::AggFn::kNone:
        case sql::AggFn::kCount:
          touch(key).eq = true;
          break;
        case sql::AggFn::kSum:
        case sql::AggFn::kAvg:
          touch(key).add = true;
          break;
        case sql::AggFn::kMin:
        case sql::AggFn::kMax:
          touch(key).ord = true;
          break;
      }
    }
    for (const auto& j : q.joins) {
      DPE_ASSIGN_OR_RETURN(std::string k1, scope.ColumnKey(j.left));
      DPE_ASSIGN_OR_RETURN(std::string k2, scope.ColumnKey(j.right));
      touch(k1).eq = true;
      touch(k2).eq = true;
      join_groups.Union(k1, k2);
    }
    if (q.where) DPE_RETURN_NOT_OK(walk_pred(*q.where, scope));
    for (const auto& c : q.group_by) {
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(c));
      touch(key).eq = true;
    }
    for (const auto& o : q.order_by) {
      DPE_ASSIGN_OR_RETURN(std::string key, scope.ColumnKey(o.column));
      touch(key).ord = true;
    }
  }

  // Materialize join groups (group name = root key).
  for (const auto& [key, cfg] : layout.columns) {
    (void)cfg;
    if (join_groups.Joined(key)) {
      std::string root = join_groups.Find(key);
      layout.join_group_of[key] = root;
    }
  }
  return layout;
}

namespace {

/// The per-attribute constant class of the composite modes, read off the
/// onion layout the log needs: ranged attribute -> OPE, equality-only ->
/// DET, only aggregated -> HOM (kCryptDb) or PROB (kCryptDbNoHom).
std::map<std::string, PpeClass> ConstClassesOf(
    const cryptdb::OnionLayout& layout, ConstMode mode) {
  std::map<std::string, PpeClass> out;
  for (const auto& [key, cfg] : layout.columns) {
    if (cfg.ord) {
      // Any range predicate forces order-comparable constants for the whole
      // attribute (mixed DET/OPE constants would not be inter-comparable).
      out[key] = PpeClass::kOpe;
    } else if (cfg.eq) {
      out[key] = PpeClass::kDet;
    } else if (cfg.add) {
      out[key] = mode == ConstMode::kCryptDb ? PpeClass::kHom : PpeClass::kProb;
    } else {
      out[key] = PpeClass::kProb;
    }
  }
  return out;
}

}  // namespace

Result<LogEncryptor> LogEncryptor::Create(
    const SchemeSpec& spec, const crypto::KeyManager& keys,
    const db::Database& plain_db, const std::vector<SelectQuery>& log,
    const db::DomainRegistry& domains, const Options& options) {
  LogEncryptor enc;
  enc.spec_ = spec;
  enc.keys_ = &keys;
  enc.plain_db_ = &plain_db;
  enc.log_ = &log;
  enc.domains_ = &domains;
  enc.options_ = options;

  for (const std::string& rel : plain_db.TableNames()) {
    DPE_ASSIGN_OR_RETURN(const db::Table* t, plain_db.GetTable(rel));
    enc.schemas_[rel] = t->schema();
  }

  if (spec.const_mode != ConstMode::kUniform) {
    // One walk of the log yields the constant classes and, for the result
    // scheme, the onion layout of the encrypted database.
    DPE_ASSIGN_OR_RETURN(cryptdb::OnionLayout layout,
                         DeriveOnionLayout(log, enc.schemas_));
    enc.const_class_ = ConstClassesOf(layout, spec.const_mode);
    if (spec.const_mode == ConstMode::kCryptDb) {
      // Exact Def.-1 preservation of the result measure needs value images
      // that are consistent ACROSS columns (plaintext tuples can coincide
      // across attributes); share the EQ/ORD keys globally (JOIN usage mode).
      layout.shared_value_keys = true;
      cryptdb::CryptDb::Options db_options;
      db_options.crypto.paillier_bits = options.paillier_bits;
      db_options.crypto.ope_range_bits = options.ope_range_bits;
      crypto::Csprng rng = options.rng_seed.empty()
                               ? crypto::Csprng::FromSystemEntropy()
                               : crypto::Csprng::FromSeed(options.rng_seed);
      DPE_ASSIGN_OR_RETURN(cryptdb::CryptDb cdb,
                           cryptdb::CryptDb::Build(plain_db, layout, keys,
                                                   db_options, std::move(rng)));
      enc.crypt_db_ = std::make_shared<cryptdb::CryptDb>(std::move(cdb));
    }
  }

  enc.prob_rng_ = options.rng_seed.empty()
                      ? crypto::Csprng::FromSystemEntropy()
                      : crypto::Csprng::FromSeed(options.rng_seed + "/prob");
  return enc;
}

namespace {

Result<std::string> EncryptNameWithClass(PpeClass cls,
                                         const crypto::KeyManager& keys,
                                         const std::string& purpose,
                                         const std::string& name,
                                         crypto::Csprng* prob_rng) {
  switch (cls) {
    case PpeClass::kIdentity:
      return name;
    case PpeClass::kDet: {
      DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor det,
                           crypto::DetEncryptor::Create(keys.Derive(purpose)));
      return "e" + HexEncode(det.EncryptConst(name));
    }
    case PpeClass::kProb: {
      DPE_ASSIGN_OR_RETURN(
          crypto::ProbEncryptor prob,
          crypto::ProbEncryptor::Create(
              keys.Derive(purpose),
              crypto::Csprng::FromSeed(prob_rng->NextBytes(32))));
      return "p" + HexEncode(prob.Encrypt(name));
    }
    default:
      return Status::Unimplemented(std::string(crypto::PpeClassName(cls)) +
                                   " is not applicable to identifiers");
  }
}

}  // namespace

Result<std::string> LogEncryptor::EncryptRelName(const std::string& name) const {
  return EncryptNameWithClass(spec_.enc_rel, *keys_, "name/rel", name,
                              &*prob_rng_);
}

Result<std::string> LogEncryptor::EncryptAttrName(const std::string& name) const {
  return EncryptNameWithClass(spec_.enc_attr, *keys_, "name/attr", name,
                              &*prob_rng_);
}

Result<PpeClass> LogEncryptor::ConstClassFor(const std::string& column_key) const {
  if (spec_.const_mode == ConstMode::kUniform) return spec_.uniform_const;
  auto it = const_class_.find(column_key);
  if (it == const_class_.end()) return PpeClass::kProb;  // never constrained
  return it->second;
}

Result<Literal> LogEncryptor::EncryptConstant(const std::string& column_key,
                                              const Literal& literal) const {
  DPE_ASSIGN_OR_RETURN(PpeClass cls, ConstClassFor(column_key));
  switch (cls) {
    case PpeClass::kIdentity:
      return literal;
    case PpeClass::kDet: {
      if (spec_.const_mode == ConstMode::kCryptDb) {
        DPE_ASSIGN_OR_RETURN(
            db::Value cell,
            crypt_db_->onion_crypto().EncryptEq(column_key,
                                                db::Value::FromLiteral(literal)));
        return Literal::String(cell.string_value());
      }
      const std::string purpose = spec_.global_const_key
                                      ? "const/@global"
                                      : "const/" + column_key;
      // Under the single shared key (token scheme), numeric constants map to
      // *numeric* images via a keyed PRF. This keeps the token substitution
      // role-independent: the integer 5 used as a predicate constant and as
      // a LIMIT count is one token of the query string and must have one
      // image (LogEncryptorTest.TokenSchemeLimitGetsSameImageAsEqualConstant).
      // Still class DET: keyed, deterministic, injective up to PRF
      // collisions.
      if (spec_.global_const_key) {
        const Bytes prf_key = keys_->Derive(purpose);
        if (literal.kind() == Literal::Kind::kInt) {
          uint64_t img =
              crypto::PrfU64(prf_key, "int-det", literal.CanonicalBytes());
          return Literal::Int(static_cast<int64_t>(img >> 1));
        }
        if (literal.kind() == Literal::Kind::kDouble) {
          uint64_t img =
              crypto::PrfU64(prf_key, "double-det", literal.CanonicalBytes());
          // 53 mantissa bits -> exact canonical round trip.
          return Literal::Double(
              static_cast<double>(img >> 11) * 0x1.0p-53);
        }
      }
      DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor det,
                           crypto::DetEncryptor::Create(keys_->Derive(purpose)));
      return Literal::String("e" +
                             HexEncode(det.EncryptConst(literal.CanonicalBytes())));
    }
    case PpeClass::kOpe: {
      if (spec_.const_mode == ConstMode::kCryptDb) {
        DPE_ASSIGN_OR_RETURN(
            db::Value cell,
            crypt_db_->onion_crypto().EncryptOrd(column_key,
                                                 db::Value::FromLiteral(literal)));
        return Literal::String(cell.string_value());
      }
      DPE_ASSIGN_OR_RETURN(uint64_t u, cryptdb::OrderPreservingU64(
                                           db::Value::FromLiteral(literal)));
      crypto::BoldyrevaOpe::Options ope_options;
      ope_options.domain_bits = 64;
      ope_options.range_bits = options_.ope_range_bits;
      DPE_ASSIGN_OR_RETURN(
          crypto::BoldyrevaOpe ope,
          crypto::BoldyrevaOpe::Create(keys_->Derive("const-ope/" + column_key),
                                       ope_options));
      return Literal::String("o" + ope.EncryptToHex(u));
    }
    default:
      return Status::InvalidArgument(
          std::string(crypto::PpeClassName(cls)) +
          " has no deterministic constant image (use EncryptQuery)");
  }
}

Result<ColumnRef> LogEncryptor::EncryptColumnRef(const ColumnRef& c) const {
  ColumnRef out;
  if (!c.relation.empty()) {
    DPE_ASSIGN_OR_RETURN(out.relation, EncryptRelName(c.relation));
  }
  DPE_ASSIGN_OR_RETURN(out.name, EncryptAttrName(c.name));
  return out;
}

Result<Literal> LogEncryptor::EncryptConstantForQuery(
    const ColumnRef& c, const sql::QueryScope& scope, const Literal& lit) const {
  // The class is per attribute, not per operator.
  DPE_ASSIGN_OR_RETURN(std::string rel, scope.RelationOf(c));
  DPE_ASSIGN_OR_RETURN(ColumnType type,
                       db::ColumnTypeOf(schemas_, rel, c.name));
  DPE_ASSIGN_OR_RETURN(Literal coerced, cryptdb::CoerceLiteral(type, lit));
  const std::string key = rel + "." + c.name;
  DPE_ASSIGN_OR_RETURN(PpeClass cls, ConstClassFor(key));
  switch (cls) {
    case PpeClass::kProb: {
      DPE_ASSIGN_OR_RETURN(
          crypto::ProbEncryptor prob,
          crypto::ProbEncryptor::Create(
              keys_->Derive("const/" + key),
              crypto::Csprng::FromSeed(prob_rng_->NextBytes(32))));
      return Literal::String("p" + HexEncode(prob.Encrypt(coerced.CanonicalBytes())));
    }
    case PpeClass::kHom: {
      if (coerced.kind() != Literal::Kind::kInt) {
        return Status::TypeError("HOM constants must be integers");
      }
      if (crypt_db_ == nullptr) {
        return Status::InvalidArgument("HOM constants require the CryptDB mode");
      }
      // Encrypt under the database Paillier key (rare: constants of purely
      // aggregated attributes do not occur in well-formed logs).
      auto& onion = const_cast<cryptdb::OnionCrypto&>(crypt_db_->onion_crypto());
      DPE_ASSIGN_OR_RETURN(db::Value cell,
                           onion.EncryptAdd(key, db::Value::FromLiteral(coerced)));
      return Literal::String(cell.string_value());
    }
    default:
      return EncryptConstant(key, coerced);
  }
}

Result<PredicatePtr> LogEncryptor::EncryptPredicate(
    const Predicate& p, const sql::QueryScope& scope) const {
  using Kind = Predicate::Kind;
  switch (p.kind) {
    case Kind::kCompare: {
      DPE_ASSIGN_OR_RETURN(ColumnRef col, EncryptColumnRef(p.column));
      DPE_ASSIGN_OR_RETURN(Literal lit,
                           EncryptConstantForQuery(p.column, scope, p.literal));
      return Predicate::Compare(std::move(col), p.op, std::move(lit));
    }
    case Kind::kColumnCompare: {
      DPE_ASSIGN_OR_RETURN(ColumnRef a, EncryptColumnRef(p.column));
      DPE_ASSIGN_OR_RETURN(ColumnRef b, EncryptColumnRef(p.column2));
      return Predicate::ColumnCompare(std::move(a), p.op, std::move(b));
    }
    case Kind::kBetween: {
      DPE_ASSIGN_OR_RETURN(ColumnRef col, EncryptColumnRef(p.column));
      DPE_ASSIGN_OR_RETURN(Literal lo,
                           EncryptConstantForQuery(p.column, scope, p.low));
      DPE_ASSIGN_OR_RETURN(Literal hi,
                           EncryptConstantForQuery(p.column, scope, p.high));
      return Predicate::Between(std::move(col), std::move(lo), std::move(hi));
    }
    case Kind::kIn: {
      DPE_ASSIGN_OR_RETURN(ColumnRef col, EncryptColumnRef(p.column));
      std::vector<Literal> values;
      for (const auto& v : p.in_list) {
        DPE_ASSIGN_OR_RETURN(Literal ev,
                             EncryptConstantForQuery(p.column, scope, v));
        values.push_back(std::move(ev));
      }
      return Predicate::In(std::move(col), std::move(values));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<PredicatePtr> children;
      for (const auto& c : p.children) {
        DPE_ASSIGN_OR_RETURN(PredicatePtr ec, EncryptPredicate(*c, scope));
        children.push_back(std::move(ec));
      }
      return p.kind == Kind::kAnd ? Predicate::And(std::move(children))
                                  : Predicate::Or(std::move(children));
    }
    case Kind::kNot: {
      DPE_ASSIGN_OR_RETURN(PredicatePtr child,
                           EncryptPredicate(*p.children[0], scope));
      return Predicate::Not(std::move(child));
    }
  }
  return Status::Internal("unreachable");
}

Result<SelectQuery> LogEncryptor::EncryptQuery(const SelectQuery& q) const {
  // CryptDB mode delegates to the onion rewriter (per-operator onions).
  if (spec_.const_mode == ConstMode::kCryptDb) {
    return crypt_db_->Rewrite(q);
  }

  SelectQuery out;
  out.distinct = q.distinct;
  DPE_ASSIGN_OR_RETURN(out.from.name, EncryptRelName(q.from.name));
  if (!q.from.alias.empty()) {
    DPE_ASSIGN_OR_RETURN(out.from.alias, EncryptRelName(q.from.alias));
  }
  for (const auto& j : q.joins) {
    sql::JoinClause ej;
    DPE_ASSIGN_OR_RETURN(ej.table.name, EncryptRelName(j.table.name));
    if (!j.table.alias.empty()) {
      DPE_ASSIGN_OR_RETURN(ej.table.alias, EncryptRelName(j.table.alias));
    }
    DPE_ASSIGN_OR_RETURN(ej.left, EncryptColumnRef(j.left));
    DPE_ASSIGN_OR_RETURN(ej.right, EncryptColumnRef(j.right));
    out.joins.push_back(std::move(ej));
  }
  for (const auto& item : q.items) {
    if (item.star && item.agg == sql::AggFn::kNone) {
      out.items.push_back(sql::SelectItem::Star());
    } else if (item.star) {
      out.items.push_back(sql::SelectItem::CountStar());
    } else {
      DPE_ASSIGN_OR_RETURN(ColumnRef col, EncryptColumnRef(item.column));
      out.items.push_back(item.agg == sql::AggFn::kNone
                              ? sql::SelectItem::Col(std::move(col))
                              : sql::SelectItem::Agg(item.agg, std::move(col)));
    }
  }
  if (q.where) {
    DPE_ASSIGN_OR_RETURN(out.where,
                         EncryptPredicate(*q.where, sql::QueryScope(q)));
  }
  for (const auto& c : q.group_by) {
    DPE_ASSIGN_OR_RETURN(ColumnRef col, EncryptColumnRef(c));
    out.group_by.push_back(std::move(col));
  }
  for (const auto& o : q.order_by) {
    sql::OrderItem item;
    DPE_ASSIGN_OR_RETURN(item.column, EncryptColumnRef(o.column));
    item.ascending = o.ascending;
    out.order_by.push_back(std::move(item));
  }
  // LIMIT: under the shared-key DET constant scheme the count is a token of
  // the query string like any other integer constant, so it gets the same
  // PRF image; otherwise it stays plain (it is a cardinality, not an
  // attribute constant, and executing schemes need it intact).
  if (q.limit.has_value() && spec_.const_mode == ConstMode::kUniform &&
      spec_.uniform_const == PpeClass::kDet && spec_.global_const_key) {
    DPE_ASSIGN_OR_RETURN(
        Literal img, EncryptConstant("@limit", Literal::Int(*q.limit)));
    out.limit = img.int_value();
  } else {
    out.limit = q.limit;
  }
  return out;
}

Result<EncryptionArtifacts> LogEncryptor::EncryptAll() const {
  EncryptionArtifacts artifacts;
  artifacts.encrypted_log.reserve(log_->size());
  for (const SelectQuery& q : *log_) {
    DPE_ASSIGN_OR_RETURN(SelectQuery eq, EncryptQuery(q));
    artifacts.encrypted_log.push_back(std::move(eq));
  }

  if (spec_.measure == MeasureKind::kResult && crypt_db_ != nullptr) {
    artifacts.encrypted_db = crypt_db_->encrypted();
    artifacts.provider_options = crypt_db_->ProviderOptions();
  }

  if (spec_.measure == MeasureKind::kAccessArea) {
    db::DomainRegistry enc_domains;
    for (const auto& [key, domain] : domains_->all()) {
      DPE_ASSIGN_OR_RETURN(PpeClass cls, ConstClassFor(key));
      if (cls != PpeClass::kDet && cls != PpeClass::kOpe) {
        continue;  // PROB/HOM attributes: domain not shared (higher security)
      }
      DPE_ASSIGN_OR_RETURN(sql::Literal min_lit,
                           db::Value(domain.min).ToLiteral());
      DPE_ASSIGN_OR_RETURN(sql::Literal max_lit,
                           db::Value(domain.max).ToLiteral());
      DPE_ASSIGN_OR_RETURN(sql::Literal enc_min, EncryptConstant(key, min_lit));
      DPE_ASSIGN_OR_RETURN(sql::Literal enc_max, EncryptConstant(key, max_lit));
      auto dot = key.find('.');
      DPE_ASSIGN_OR_RETURN(std::string enc_rel,
                           EncryptRelName(key.substr(0, dot)));
      DPE_ASSIGN_OR_RETURN(std::string enc_attr,
                           EncryptAttrName(key.substr(dot + 1)));
      enc_domains.Set(enc_rel + "." + enc_attr,
                      db::Domain{db::Value::FromLiteral(enc_min),
                                 db::Value::FromLiteral(enc_max)});
    }
    artifacts.encrypted_domains = std::move(enc_domains);
  }
  return artifacts;
}

}  // namespace dpe::core
