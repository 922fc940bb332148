#include "core/equivalence.h"

#include <algorithm>
#include <set>

#include "sql/features.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace dpe::core {

using sql::SelectQuery;

namespace {

void RecordFailure(EquivalenceReport* report, const std::string& detail) {
  ++report->failed;
  if (report->first_failure.empty()) report->first_failure = detail;
}

/// Relation-name universe of a query (names + aliases).
std::set<std::string> RelationTokens(const SelectQuery& q) {
  std::set<std::string> out;
  out.insert(q.from.name);
  if (!q.from.alias.empty()) out.insert(q.from.alias);
  for (const auto& j : q.joins) {
    out.insert(j.table.name);
    if (!j.table.alias.empty()) out.insert(j.table.alias);
  }
  return out;
}

std::set<std::string> AttributeTokens(const SelectQuery& q) {
  std::set<std::string> out;
  for (const auto& c : q.Columns()) out.insert(c.name);
  return out;
}

}  // namespace

Result<EquivalenceReport> CheckTokenEquivalence(
    const LogEncryptor& enc, const std::vector<SelectQuery>& log) {
  EquivalenceReport report;
  report.notion = "token equivalence (c = tokens)";
  for (const SelectQuery& q : log) {
    ++report.checked;
    const std::set<std::string> rels = RelationTokens(q);
    const std::set<std::string> attrs = AttributeTokens(q);

    // The query-string token map is only well defined when no identifier
    // serves as both a relation and an attribute name.
    std::set<std::string> clash;
    std::set_intersection(rels.begin(), rels.end(), attrs.begin(), attrs.end(),
                          std::inserter(clash, clash.begin()));
    if (!clash.empty()) {
      RecordFailure(&report, "identifier '" + *clash.begin() +
                                 "' is both a relation and an attribute");
      continue;
    }

    // Expected image: map each plaintext token through the scheme.
    DPE_ASSIGN_OR_RETURN(std::vector<sql::Token> tokens, sql::Lex(sql::ToSql(q)));
    std::set<std::string> expected;
    bool mapped_ok = true;
    for (const sql::Token& t : tokens) {
      switch (t.kind) {
        case sql::TokenKind::kKeyword:
        case sql::TokenKind::kOperator:
        case sql::TokenKind::kPunct:
          expected.insert(t.lexeme);
          break;
        case sql::TokenKind::kIdentifier: {
          Result<std::string> image =
              rels.contains(t.lexeme) ? enc.EncryptRelName(t.lexeme)
                                      : enc.EncryptAttrName(t.lexeme);
          if (!image.ok()) {
            mapped_ok = false;
            break;
          }
          expected.insert(*image);
          break;
        }
        case sql::TokenKind::kInteger:
        case sql::TokenKind::kFloat:
        case sql::TokenKind::kString: {
          // Read the literal token as the parser does and map it through
          // EncConst. The global-key scheme makes this independent of the
          // attribute, so "@any" serves as the column key.
          DPE_ASSIGN_OR_RETURN(sql::Literal lit, sql::LiteralFromToken(t));
          Result<sql::Literal> image = enc.EncryptConstant("@any", lit);
          if (!image.ok()) {
            mapped_ok = false;
            break;
          }
          // Insert the *lexeme* of the encrypted literal.
          expected.insert(image->ToSql());
          break;
        }
        case sql::TokenKind::kEnd:
          break;
      }
      if (!mapped_ok) break;
    }
    if (!mapped_ok) {
      RecordFailure(&report, "constant/name class has no deterministic image");
      continue;
    }

    Result<SelectQuery> enc_q = enc.EncryptQuery(q);
    if (!enc_q.ok()) {
      RecordFailure(&report, "encryption failed: " + enc_q.status().ToString());
      continue;
    }
    Result<std::set<std::string>> actual = sql::TokenSet(sql::ToSql(*enc_q));
    if (!actual.ok()) {
      RecordFailure(&report, "encrypted query does not lex");
      continue;
    }
    // Expected set must use literal lexemes exactly as printed; normalize by
    // re-lexing the expected elements is unnecessary because ToSql of
    // literals is the canonical lexeme.
    if (*actual != expected) {
      RecordFailure(&report, "token sets differ for: " + sql::ToSql(q));
    }
  }
  return report;
}

Result<EquivalenceReport> CheckStructuralEquivalence(
    const LogEncryptor& enc, const std::vector<SelectQuery>& log) {
  EquivalenceReport report;
  report.notion = "structural equivalence (c = features)";
  for (const SelectQuery& q : log) {
    ++report.checked;
    // Expected: Enc applied to each feature part.
    std::set<sql::Feature> expected;
    bool mapped_ok = true;
    for (const sql::Feature& f : sql::Features(q)) {
      sql::Feature ef;
      ef.clause = f.clause;
      for (const auto& [kind, text] : f.parts) {
        switch (kind) {
          case sql::FeaturePartKind::kRelation: {
            Result<std::string> image = enc.EncryptRelName(text);
            if (!image.ok()) {
              mapped_ok = false;
              break;
            }
            ef.parts.emplace_back(kind, *image);
            break;
          }
          case sql::FeaturePartKind::kAttribute: {
            // Possibly qualified "qual.attr".
            auto dot = text.find('.');
            Result<std::string> image = Status::OK();
            if (dot == std::string::npos) {
              image = enc.EncryptAttrName(text);
            } else {
              Result<std::string> r = enc.EncryptRelName(text.substr(0, dot));
              Result<std::string> a = enc.EncryptAttrName(text.substr(dot + 1));
              if (!r.ok() || !a.ok()) {
                mapped_ok = false;
                break;
              }
              image = *r + "." + *a;
            }
            if (!image.ok()) {
              mapped_ok = false;
              break;
            }
            ef.parts.emplace_back(kind, *image);
            break;
          }
          case sql::FeaturePartKind::kSymbol:
            ef.parts.emplace_back(kind, text);
            break;
        }
        if (!mapped_ok) break;
      }
      if (!mapped_ok) break;
      expected.insert(std::move(ef));
    }
    if (!mapped_ok) {
      RecordFailure(&report, "name class has no deterministic image");
      continue;
    }

    Result<SelectQuery> enc_q = enc.EncryptQuery(q);
    if (!enc_q.ok()) {
      RecordFailure(&report, "encryption failed: " + enc_q.status().ToString());
      continue;
    }
    if (sql::Features(*enc_q) != expected) {
      RecordFailure(&report, "feature sets differ for: " + sql::ToSql(q));
    }
  }
  return report;
}

namespace {

bool HasAggregate(const SelectQuery& q) {
  return std::any_of(q.items.begin(), q.items.end(), [](const sql::SelectItem& i) {
    return i.agg != sql::AggFn::kNone;
  });
}

}  // namespace

Result<EquivalenceReport> CheckResultEquivalence(
    const LogEncryptor& enc, const std::vector<SelectQuery>& log,
    ResultEquivalenceMode mode) {
  EquivalenceReport report;
  report.notion = mode == ResultEquivalenceMode::kCiphertext
                      ? "result equivalence (ciphertext-level)"
                      : "result equivalence (decrypted)";
  const cryptdb::CryptDb* cdb = enc.crypt_db();
  if (cdb == nullptr) {
    return Status::InvalidArgument(
        "result equivalence requires a CryptDB-mode encryptor");
  }
  for (const SelectQuery& q : log) {
    ++report.checked;
    Result<SelectQuery> enc_q = enc.EncryptQuery(q);
    if (!enc_q.ok()) {
      RecordFailure(&report, "encryption failed: " + enc_q.status().ToString());
      continue;
    }
    Result<db::ResultTable> enc_result = cdb->ExecuteEncrypted(*enc_q);
    if (!enc_result.ok()) {
      RecordFailure(&report,
                    "encrypted execution failed: " + enc_result.status().ToString());
      continue;
    }

    if (mode == ResultEquivalenceMode::kDecrypted) {
      Result<db::ResultTable> decrypted = cdb->DecryptResult(q, *enc_result);
      if (!decrypted.ok()) {
        RecordFailure(&report,
                      "decryption failed: " + decrypted.status().ToString());
        continue;
      }
      DPE_ASSIGN_OR_RETURN(db::ResultTable plain, enc.ExecutePlain(q));
      if (decrypted->TupleKeySet() != plain.TupleKeySet()) {
        RecordFailure(&report, "decrypted tuples differ for: " + sql::ToSql(q));
      }
      continue;
    }

    // kCiphertext: aggregate queries are validated in decrypted mode only
    // (Paillier encryption is probabilistic, so two equal aggregates have
    // different ciphertexts).
    if (HasAggregate(q)) {
      ++report.skipped;
      continue;
    }
    DPE_ASSIGN_OR_RETURN(db::ResultTable plain, enc.ExecutePlain(q));
    DPE_ASSIGN_OR_RETURN(std::vector<cryptdb::OutputColumn> out_cols,
                         cryptdb::PlanOutput(q, enc.schemas()));
    db::ResultTable expected;  // kinds default to kPlain (SPJ query)
    bool enc_ok = true;
    for (const db::Row& row : plain.rows) {
      db::Row enc_row;
      for (size_t i = 0; i < row.size(); ++i) {
        Result<db::Value> cell =
            cdb->onion_crypto().EncryptEq(out_cols[i].ColumnKey(), row[i]);
        if (!cell.ok()) {
          enc_ok = false;
          break;
        }
        enc_row.push_back(std::move(*cell));
      }
      if (!enc_ok) break;
      expected.rows.push_back(std::move(enc_row));
    }
    if (!enc_ok) {
      RecordFailure(&report, "cell encryption failed for: " + sql::ToSql(q));
      continue;
    }
    if (enc_result->TupleKeySet() != expected.TupleKeySet()) {
      RecordFailure(&report, "ciphertext tuples differ for: " + sql::ToSql(q));
    }
  }
  return report;
}

Result<EquivalenceReport> CheckAccessAreaEquivalence(
    const LogEncryptor& enc, const std::vector<SelectQuery>& log,
    const db::DomainRegistry& plain_domains) {
  EquivalenceReport report;
  report.notion = "access-area equivalence (c = access_A)";
  db::AccessAreaOptions extraction;
  extraction.clip_to_domain = false;

  auto serialize_area = [](const db::IntervalSet& area) {
    std::vector<std::string> pieces;
    for (const auto& i : area.intervals()) pieces.push_back(i.ToString());
    std::sort(pieces.begin(), pieces.end());
    std::string out;
    for (const auto& p : pieces) out += p + ";";
    return out;
  };

  for (const SelectQuery& q : log) {
    ++report.checked;
    Result<SelectQuery> enc_q = enc.EncryptQuery(q);
    if (!enc_q.ok()) {
      RecordFailure(&report, "encryption failed: " + enc_q.status().ToString());
      continue;
    }
    auto plain_areas = db::AccessAreas(q, plain_domains, extraction);
    if (!plain_areas.ok()) {
      RecordFailure(&report, "plain extraction failed: " +
                                 plain_areas.status().ToString());
      continue;
    }
    db::DomainRegistry unused;
    auto enc_areas = db::AccessAreas(*enc_q, unused, extraction);
    if (!enc_areas.ok()) {
      RecordFailure(&report, "encrypted extraction failed: " +
                                 enc_areas.status().ToString());
      continue;
    }

    // Expected: per attribute, the plaintext area with encrypted key and
    // encrypted interval endpoints.
    std::map<std::string, std::string> expected;
    bool mapped_ok = true;
    std::string map_fail;
    for (const auto& [key, area] : *plain_areas) {
      auto dot = key.find('.');
      Result<std::string> erel = enc.EncryptRelName(key.substr(0, dot));
      Result<std::string> eattr = enc.EncryptAttrName(key.substr(dot + 1));
      if (!erel.ok() || !eattr.ok()) {
        mapped_ok = false;
        map_fail = "name image missing";
        break;
      }
      std::vector<db::Interval> enc_intervals;
      for (const db::Interval& iv : area.intervals()) {
        db::Interval out_iv;
        auto map_bound = [&](const std::optional<db::IntervalBound>& b)
            -> Result<std::optional<db::IntervalBound>> {
          if (!b.has_value()) return std::optional<db::IntervalBound>();
          DPE_ASSIGN_OR_RETURN(sql::Literal lit, b->value.ToLiteral());
          DPE_ASSIGN_OR_RETURN(sql::Literal img, enc.EncryptConstant(key, lit));
          return std::optional<db::IntervalBound>(
              db::IntervalBound{db::Value::FromLiteral(img), b->inclusive});
        };
        Result<std::optional<db::IntervalBound>> lo = map_bound(iv.lo);
        Result<std::optional<db::IntervalBound>> hi = map_bound(iv.hi);
        if (!lo.ok() || !hi.ok()) {
          mapped_ok = false;
          map_fail = "constant image missing (" +
                     (lo.ok() ? hi.status().ToString() : lo.status().ToString()) +
                     ")";
          break;
        }
        out_iv.lo = *lo;
        out_iv.hi = *hi;
        enc_intervals.push_back(std::move(out_iv));
      }
      if (!mapped_ok) break;
      expected[*erel + "." + *eattr] =
          serialize_area(db::IntervalSet::OfAll(std::move(enc_intervals)));
    }
    if (!mapped_ok) {
      RecordFailure(&report, map_fail + " for: " + sql::ToSql(q));
      continue;
    }

    std::map<std::string, std::string> actual;
    for (const auto& [key, area] : *enc_areas) {
      actual[key] = serialize_area(area);
    }
    if (actual != expected) {
      RecordFailure(&report, "access areas differ for: " + sql::ToSql(q));
    }
  }
  return report;
}

Result<EquivalenceReport> CheckEquivalence(MeasureKind kind,
                                           const LogEncryptor& enc,
                                           const std::vector<SelectQuery>& log,
                                           const db::DomainRegistry& plain_domains) {
  switch (kind) {
    case MeasureKind::kToken:
      return CheckTokenEquivalence(enc, log);
    case MeasureKind::kStructure:
      return CheckStructuralEquivalence(enc, log);
    case MeasureKind::kResult:
      return CheckResultEquivalence(enc, log, ResultEquivalenceMode::kDecrypted);
    case MeasureKind::kAccessArea:
      return CheckAccessAreaEquivalence(enc, log, plain_domains);
  }
  return Status::Internal("bad measure kind");
}

}  // namespace dpe::core
