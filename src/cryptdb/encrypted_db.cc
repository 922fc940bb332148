#include "cryptdb/encrypted_db.h"

#include <algorithm>
#include <charconv>

#include "common/hex.h"
#include "crypto/instrument.h"

namespace dpe::cryptdb {

using crypto::Bigint;
using crypto::Paillier;
using db::ColumnType;
using db::Value;

Result<CryptDb> CryptDb::Build(const db::Database& plain,
                               const OnionLayout& layout,
                               const crypto::KeyManager& keys,
                               const Options& options, crypto::Csprng rng) {
  DPE_ASSIGN_OR_RETURN(
      OnionCrypto crypto,
      OnionCrypto::Create(keys, layout, options.crypto, std::move(rng)));
  auto crypto_ptr = std::make_unique<OnionCrypto>(std::move(crypto));

  db::Database encrypted;
  SchemaMap schemas;
  for (const std::string& rel : plain.TableNames()) {
    DPE_ASSIGN_OR_RETURN(const db::Table* table, plain.GetTable(rel));
    schemas[rel] = table->schema();

    // Build the encrypted schema: per column, one string column per onion.
    std::vector<db::ColumnDef> enc_columns;
    struct ColumnPlan {
      size_t plain_index;
      std::string column_key;
      char onion;  // 'e','o','h','p'
    };
    std::vector<ColumnPlan> plan;
    const auto& cols = table->schema().columns();
    for (size_t i = 0; i < cols.size(); ++i) {
      const std::string key = rel + "." + cols[i].name;
      const std::string enc_attr = crypto_ptr->EncryptAttrName(cols[i].name);
      ColumnOnionConfig cfg = crypto_ptr->layout().ConfigFor(key);
      if (cfg.eq) {
        enc_columns.push_back({enc_attr + kEqSuffix, ColumnType::kString});
        plan.push_back({i, key, 'e'});
      }
      if (cfg.ord) {
        enc_columns.push_back({enc_attr + kOrdSuffix, ColumnType::kString});
        plan.push_back({i, key, 'o'});
      }
      if (cfg.add) {
        enc_columns.push_back({enc_attr + kAddSuffix, ColumnType::kString});
        plan.push_back({i, key, 'h'});
      }
      if (cfg.rnd_only()) {
        enc_columns.push_back({enc_attr + kRndSuffix, ColumnType::kString});
        plan.push_back({i, key, 'p'});
      }
    }

    db::Table enc_table(crypto_ptr->EncryptRelName(rel),
                        db::TableSchema(std::move(enc_columns)));
    for (const db::Row& row : table->rows()) {
      db::Row enc_row;
      enc_row.reserve(plan.size());
      for (const ColumnPlan& p : plan) {
        const Value& v = row[p.plain_index];
        switch (p.onion) {
          case 'e': {
            DPE_ASSIGN_OR_RETURN(Value c, crypto_ptr->EncryptEq(p.column_key, v));
            enc_row.push_back(std::move(c));
            break;
          }
          case 'o': {
            DPE_ASSIGN_OR_RETURN(Value c, crypto_ptr->EncryptOrd(p.column_key, v));
            enc_row.push_back(std::move(c));
            break;
          }
          case 'h': {
            DPE_ASSIGN_OR_RETURN(Value c, crypto_ptr->EncryptAdd(p.column_key, v));
            enc_row.push_back(std::move(c));
            break;
          }
          case 'p': {
            DPE_ASSIGN_OR_RETURN(Value c, crypto_ptr->EncryptRnd(p.column_key, v));
            enc_row.push_back(std::move(c));
            break;
          }
          default:
            return Status::Internal("bad onion plan");
        }
      }
      DPE_RETURN_NOT_OK(enc_table.Append(std::move(enc_row)));
    }
    DPE_RETURN_NOT_OK(encrypted.CreateTable(std::move(enc_table)));
  }

  return CryptDb(std::move(crypto_ptr), std::move(encrypted),
                 std::move(schemas));
}

Result<sql::SelectQuery> CryptDb::Rewrite(const sql::SelectQuery& query) const {
  QueryRewriter rewriter(crypto_.get(), &schemas_);
  return rewriter.Rewrite(query);
}

db::ExecuteOptions CryptDb::ProviderOptions() const {
  db::ExecuteOptions options;
  const Paillier::PublicKey& pub = crypto_->paillier_pub();
  options.agg_hook = [pub](sql::AggFn fn, const std::string& column_name,
                           const std::vector<Value>& values)
      -> std::optional<Value> {
    // Only SUM/AVG over an ADD-onion column use Paillier folding.
    if (fn != sql::AggFn::kSum && fn != sql::AggFn::kAvg) return std::nullopt;
    if (!column_name.ends_with(kAddSuffix)) return std::nullopt;
    // This is the crypto cost of encrypted result-measure builds: one fold
    // per aggregate row group, each a chain of Paillier::Add calls.
    DPE_CRYPTO_COUNT("cryptdb", "agg_fold");
    crypto::CryptoSpan fold_span("cryptdb.agg_fold");
    Bigint acc;
    bool any = false;
    size_t count = 0;
    for (const Value& v : values) {
      if (v.is_null()) continue;
      if (!v.is_string() || v.string_value().empty() ||
          v.string_value()[0] != 'h') {
        return std::nullopt;  // malformed; let the default path error out
      }
      auto bytes = HexDecode(std::string_view(v.string_value()).substr(1));
      if (!bytes.ok()) return std::nullopt;
      Bigint ct = Bigint::FromBytes(*bytes);
      acc = any ? Paillier::Add(pub, acc, ct) : ct;
      any = true;
      ++count;
    }
    if (!any) return Value::Null();  // SQL: SUM/AVG over empty -> NULL
    std::string cell = "h" + HexEncode(acc.ToBytes());
    if (fn == sql::AggFn::kAvg) {
      cell += "|" + std::to_string(count);  // owner divides after decryption
    }
    return Value::String(std::move(cell));
  };
  return options;
}

Result<db::ResultTable> CryptDb::ExecuteEncrypted(
    const sql::SelectQuery& enc_query) const {
  return db::Execute(encrypted_, enc_query, ProviderOptions());
}

Result<std::vector<OutputColumn>> PlanOutput(const sql::SelectQuery& query,
                                             const SchemaMap& schemas) {
  const sql::QueryScope scope(query);
  std::vector<OutputColumn> out;
  for (const sql::SelectItem& item : query.items) {
    if (item.star && item.agg == sql::AggFn::kNone) {
      for (const std::string& rel : scope.relations()) {
        auto it = schemas.find(rel);
        if (it == schemas.end()) {
          return Status::ExecutionError("unknown relation " + rel);
        }
        for (const db::ColumnDef& col : it->second.columns()) {
          out.push_back({sql::AggFn::kNone, false, rel, col.name, col.type});
        }
      }
      continue;
    }
    if (item.star) {
      out.push_back({sql::AggFn::kCount, true, "", "", ColumnType::kInt});
      continue;
    }
    const sql::ColumnRef& c = item.column;
    std::vector<std::string> candidates = scope.relations();
    if (!c.relation.empty()) {
      DPE_ASSIGN_OR_RETURN(std::string rel, scope.RelationOf(c));
      candidates = {std::move(rel)};
    }
    auto has_column = [&](const std::string& rel) {
      return db::ColumnTypeOf(schemas, rel, c.name).ok();
    };
    auto rel = std::find_if(candidates.begin(), candidates.end(), has_column);
    if (rel == candidates.end()) {
      return Status::ExecutionError("cannot resolve column " + c.ToSql());
    }
    DPE_ASSIGN_OR_RETURN(ColumnType type,
                         db::ColumnTypeOf(schemas, *rel, c.name));
    out.push_back({item.agg, false, *rel, c.name, type});
  }
  return out;
}

Result<db::ResultTable> CryptDb::DecryptResult(
    const sql::SelectQuery& plain_query,
    const db::ResultTable& enc_result) const {
  DPE_ASSIGN_OR_RETURN(std::vector<OutputColumn> plan,
                       PlanOutput(plain_query, schemas_));
  db::ResultTable out;
  for (const auto& col : plan) {
    if (col.agg == sql::AggFn::kNone) {
      out.column_names.push_back(col.ColumnKey());
    } else if (col.count_star) {
      out.column_names.push_back("COUNT(*)");
    } else {
      out.column_names.push_back(std::string(sql::AggFnSql(col.agg)) + "(" +
                                 col.ColumnKey() + ")");
    }
    switch (col.agg) {
      case sql::AggFn::kNone:
        out.column_kinds.push_back(db::OutputKind::kPlain);
        break;
      case sql::AggFn::kCount:
        out.column_kinds.push_back(db::OutputKind::kCount);
        break;
      case sql::AggFn::kSum:
        out.column_kinds.push_back(db::OutputKind::kSum);
        break;
      case sql::AggFn::kAvg:
        out.column_kinds.push_back(db::OutputKind::kAvg);
        break;
      case sql::AggFn::kMin:
      case sql::AggFn::kMax:
        out.column_kinds.push_back(db::OutputKind::kMinMax);
        break;
    }
  }

  for (const db::Row& row : enc_result.rows) {
    if (row.size() != plan.size()) {
      return Status::Internal("encrypted result arity mismatch: " +
                              std::to_string(row.size()) + " vs plan " +
                              std::to_string(plan.size()));
    }
    db::Row prow;
    prow.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      const OutputColumn& col = plan[i];
      const Value& cell = row[i];
      if (cell.is_null()) {
        prow.push_back(Value::Null());
        continue;
      }
      switch (col.agg) {
        case sql::AggFn::kNone:
        case sql::AggFn::kMin:
        case sql::AggFn::kMax: {
          DPE_ASSIGN_OR_RETURN(
              Value v, crypto_->DecryptCell(col.ColumnKey(), col.type, cell));
          prow.push_back(std::move(v));
          break;
        }
        case sql::AggFn::kCount:
          prow.push_back(cell);  // counts are carried in the clear
          break;
        case sql::AggFn::kSum: {
          DPE_ASSIGN_OR_RETURN(int64_t v, crypto_->DecryptPaillierSum(cell));
          prow.push_back(Value::Int(v));
          break;
        }
        case sql::AggFn::kAvg: {
          // "h<hex>|<count>".
          if (!cell.is_string()) {
            return Status::CryptoError("AVG cell must be a string");
          }
          const std::string& s = cell.string_value();
          size_t bar = s.rfind('|');
          if (bar == std::string::npos) {
            return Status::CryptoError("AVG cell missing count: " + s);
          }
          // The whole tail must be a positive int64: no blanks, sign,
          // trailing bytes or overflow.
          int64_t count = 0;
          const char* end = s.data() + s.size();
          auto [stop, error] = std::from_chars(s.data() + bar + 1, end, count);
          if (error != std::errc() || stop != end || count <= 0) {
            return Status::CryptoError("AVG count invalid: " + s.substr(bar + 1));
          }
          DPE_ASSIGN_OR_RETURN(
              int64_t sum,
              crypto_->DecryptPaillierSum(Value::String(s.substr(0, bar))));
          prow.push_back(Value::Double(static_cast<double>(sum) /
                                       static_cast<double>(count)));
          break;
        }
      }
    }
    out.rows.push_back(std::move(prow));
  }
  return out;
}

}  // namespace dpe::cryptdb
