#include "core/appropriate.h"

#include <functional>

#include "sql/parser.h"
#include "workload/scenarios.h"

namespace dpe::core {

using crypto::PpeClass;
using sql::SelectQuery;

namespace {

struct TestBed {
  workload::Scenario scenario;
  crypto::KeyManager keys;

  explicit TestBed(workload::Scenario s)
      : scenario(std::move(s)), keys("kit-dpe/table1-search/master") {}
};

Result<TestBed> MakeBed(const AppropriateSearchOptions& options) {
  workload::ScenarioOptions sopt;
  sopt.seed = options.seed;
  sopt.rows_per_relation = options.rows_per_relation;
  sopt.log_size = options.log_size;
  DPE_ASSIGN_OR_RETURN(workload::Scenario s, workload::MakeShopScenario(sopt));

  // Probe queries that make the Def.-6 check discriminating: the generated
  // log is Zipf-skewed (ranges repeat), so a weak class can pass by luck.
  // These pairs pin down every relation the notions depend on: overlapping /
  // nested / disjoint ranges, point-in-range, equal literals under two
  // attributes (the token counterexample) and cross-attribute result-tuple
  // collisions.
  static const char* kProbes[] = {
      "SELECT cid FROM customers WHERE age > 30",
      "SELECT cid FROM customers WHERE age > 40",
      "SELECT cid FROM customers WHERE age < 25",
      "SELECT cid FROM customers WHERE age BETWEEN 30 AND 50",
      "SELECT cid FROM customers WHERE age BETWEEN 35 AND 45",
      "SELECT cid FROM customers WHERE age = 35",
      "SELECT cid FROM customers WHERE age = 36",
      "SELECT cid FROM customers WHERE NOT age = 35",
      "SELECT oid FROM orders WHERE quantity = 35",
      "SELECT oid FROM orders WHERE quantity BETWEEN 10 AND 20",
      "SELECT age FROM customers WHERE city = 'berlin'",
      "SELECT quantity FROM orders WHERE status = 'pending'",
      "SELECT cid FROM customers WHERE age >= 18",
      "SELECT cid FROM customers WHERE city = 'berlin' OR city = 'paris'",
  };
  for (const char* text : kProbes) {
    DPE_ASSIGN_OR_RETURN(sql::SelectQuery q, sql::Parse(text));
    s.log.push_back(std::move(q));
  }
  return TestBed(std::move(s));
}

LogEncryptor::Options EncOptions(const AppropriateSearchOptions& options) {
  LogEncryptor::Options eopt;
  eopt.paillier_bits = options.paillier_bits;
  eopt.ope_range_bits = options.ope_range_bits;
  eopt.rng_seed = "table1-search";
  return eopt;
}

/// Security profile of the EncConst slot under a scheme: one level per
/// constant-bearing attribute (uniform schemes repeat their single level).
SecurityProfile ConstProfile(const LogEncryptor& enc) {
  SecurityProfile profile;
  if (enc.spec().const_mode == ConstMode::kUniform) {
    profile.Add(enc.spec().uniform_const);
    return profile;
  }
  for (const auto& [key, cls] : enc.const_classes()) {
    (void)key;
    profile.Add(cls);
  }
  return profile;
}

/// Runs the Def.-1 check for one SchemeSpec; fills an audit entry.
CandidateAudit TestSpec(const std::string& slot, const std::string& label,
                        const SchemeSpec& spec, const TestBed& bed,
                        const AppropriateSearchOptions& options) {
  CandidateAudit audit;
  audit.slot = slot;
  audit.candidate = label;
  Result<LogEncryptor> enc =
      LogEncryptor::Create(spec, bed.keys, bed.scenario.database, bed.scenario.log,
                           bed.scenario.domains, EncOptions(options));
  if (!enc.ok()) {
    audit.applicable = false;
    return audit;
  }
  audit.applicable = true;
  audit.profile = ConstProfile(*enc).ToString();
  Result<DpeCheckReport> report =
      CheckDistancePreservation(spec.measure, *enc, bed.scenario.log,
                                bed.scenario.database, bed.scenario.domains);
  if (!report.ok()) {
    // Encryption or provider-side computation impossible under this class
    // (e.g. OPE over string constants): the class does not ensure the notion.
    audit.preserves = false;
    return audit;
  }
  audit.max_abs_delta = report->max_abs_delta;
  audit.preserves = report->exact();
  return audit;
}

/// Simulates PROB name encryption: every name occurrence in the encrypted
/// log replaced by a fresh identifier. Tests whether the measure survives.
CandidateAudit TestProbNames(const std::string& slot, MeasureKind measure,
                             const TestBed& bed,
                             const AppropriateSearchOptions& options) {
  CandidateAudit audit;
  audit.slot = slot;
  audit.candidate = "PROB";
  audit.applicable = true;
  audit.profile = "[3]";

  SchemeSpec spec = CanonicalScheme(measure);
  Result<LogEncryptor> enc =
      LogEncryptor::Create(spec, bed.keys, bed.scenario.database, bed.scenario.log,
                           bed.scenario.domains, EncOptions(options));
  if (!enc.ok()) {
    audit.applicable = false;
    return audit;
  }
  Result<EncryptionArtifacts> artifacts = enc->EncryptAll();
  if (!artifacts.ok()) {
    audit.applicable = false;
    return audit;
  }

  // Scramble.
  size_t counter = 0;
  auto fresh = [&counter]() { return "prob" + std::to_string(counter++); };
  const bool scramble_rel = slot == "EncRel";
  std::function<void(sql::Predicate&)> scramble_pred =
      [&](sql::Predicate& p) {
        if (!scramble_rel) {
          p.column.name = fresh();
          p.column2.name = p.column2.name.empty() ? "" : fresh();
        } else {
          if (!p.column.relation.empty()) p.column.relation = fresh();
          if (!p.column2.relation.empty()) p.column2.relation = fresh();
        }
        for (auto& c : p.children) scramble_pred(*c);
      };
  for (SelectQuery& q : artifacts->encrypted_log) {
    if (scramble_rel) {
      q.from.name = fresh();
      if (!q.from.alias.empty()) q.from.alias = fresh();
      for (auto& j : q.joins) {
        j.table.name = fresh();
        if (!j.table.alias.empty()) j.table.alias = fresh();
        if (!j.left.relation.empty()) j.left.relation = fresh();
        if (!j.right.relation.empty()) j.right.relation = fresh();
      }
      for (auto& item : q.items) {
        if (!item.column.relation.empty()) item.column.relation = fresh();
      }
      for (auto& c : q.group_by) {
        if (!c.relation.empty()) c.relation = fresh();
      }
      for (auto& o : q.order_by) {
        if (!o.column.relation.empty()) o.column.relation = fresh();
      }
    } else {
      for (auto& j : q.joins) {
        j.left.name = fresh();
        j.right.name = fresh();
      }
      for (auto& item : q.items) {
        if (!item.star) item.column.name = fresh();
      }
      for (auto& c : q.group_by) c.name = fresh();
      for (auto& o : q.order_by) o.column.name = fresh();
    }
    if (q.where) scramble_pred(*q.where);
  }

  // Distance check: plaintext matrix vs matrix over the scrambled log.
  std::unique_ptr<distance::QueryDistanceMeasure> m = MakeMeasure(measure);
  distance::MeasureContext plain_ctx;
  plain_ctx.database = &bed.scenario.database;
  plain_ctx.domains = &bed.scenario.domains;
  Result<distance::DistanceMatrix> plain =
      distance::DistanceMatrix::Compute(bed.scenario.log, *m, plain_ctx);
  if (!plain.ok()) {
    audit.applicable = false;
    return audit;
  }

  distance::MeasureContext enc_ctx;
  db::DomainRegistry empty;
  enc_ctx.domains = artifacts->encrypted_domains.has_value()
                        ? &*artifacts->encrypted_domains
                        : &empty;
  if (artifacts->encrypted_db.has_value()) {
    enc_ctx.database = &*artifacts->encrypted_db;
    enc_ctx.exec_options = &artifacts->provider_options;
  }
  Result<distance::DistanceMatrix> scrambled =
      distance::DistanceMatrix::Compute(artifacts->encrypted_log, *m, enc_ctx);
  if (!scrambled.ok()) {
    // Scrambled names break provider-side computation entirely.
    audit.preserves = false;
    audit.max_abs_delta = 1.0;
    return audit;
  }
  Result<double> delta =
      distance::DistanceMatrix::MaxAbsDifference(*plain, *scrambled);
  audit.max_abs_delta = delta.ok() ? *delta : 1.0;
  audit.preserves = delta.ok() && *delta == 0.0;
  return audit;
}

std::string SharedInformationOf(MeasureKind measure) {
  switch (measure) {
    case MeasureKind::kToken:
    case MeasureKind::kStructure:
      return "Log";
    case MeasureKind::kResult:
      return "Log + DB-Content";
    case MeasureKind::kAccessArea:
      return "Log + Domains";
  }
  return "?";
}

std::string NotionOf(MeasureKind measure) {
  switch (measure) {
    case MeasureKind::kToken:
      return "Token Equivalence";
    case MeasureKind::kStructure:
      return "Structural Equivalence";
    case MeasureKind::kResult:
      return "Result Equivalence";
    case MeasureKind::kAccessArea:
      return "Access-Area Equivalence";
  }
  return "?";
}

std::string CharacteristicOf(MeasureKind measure) {
  switch (measure) {
    case MeasureKind::kToken:
      return "tokens";
    case MeasureKind::kStructure:
      return "features";
    case MeasureKind::kResult:
      return "result tuples";
    case MeasureKind::kAccessArea:
      return "access_A";
  }
  return "?";
}

}  // namespace

Result<TableIRow> SelectAppropriateClasses(
    MeasureKind measure, const AppropriateSearchOptions& options) {
  DPE_ASSIGN_OR_RETURN(TestBed bed, MakeBed(options));

  TableIRow row;
  row.measure = measure;
  row.measure_name = MeasureKindName(measure);
  row.shared_information = SharedInformationOf(measure);
  row.equivalence_notion = NotionOf(measure);
  row.characteristic = CharacteristicOf(measure);

  // ---- EncRel / EncAttr slots: PROB (scrambled) vs DET (canonical) -------
  for (const std::string& slot :
       {std::string("EncRel"), std::string("EncAttr")}) {
    CandidateAudit prob = TestProbNames(slot, measure, bed, options);
    row.audit.push_back(prob);
    CandidateAudit det = TestSpec(slot, "DET", CanonicalScheme(measure), bed,
                                  options);
    det.profile = "[2]";
    row.audit.push_back(det);
    std::string chosen = prob.preserves ? "PROB" : (det.preserves ? "DET" : "?");
    if (slot == "EncRel") {
      row.enc_rel = chosen;
    } else {
      row.enc_attr = chosen;
    }
  }

  // ---- EncConst slot ------------------------------------------------------
  struct ConstCandidate {
    std::string label;
    SchemeSpec spec;
  };
  std::vector<ConstCandidate> candidates;
  auto uniform = [&](PpeClass cls, bool global_key) {
    SchemeSpec s = CanonicalScheme(measure);
    s.const_mode = ConstMode::kUniform;
    s.uniform_const = cls;
    s.global_const_key = global_key;
    return s;
  };
  candidates.push_back({"PROB", uniform(PpeClass::kProb, false)});
  candidates.push_back({"HOM", uniform(PpeClass::kHom, false)});
  candidates.push_back({"DET", uniform(PpeClass::kDet, true)});
  candidates.push_back(
      {"DET (per-attribute keys)", uniform(PpeClass::kDet, false)});
  if (measure == MeasureKind::kAccessArea || measure == MeasureKind::kResult) {
    SchemeSpec nohom = CanonicalScheme(measure);
    nohom.const_mode = ConstMode::kCryptDbNoHom;
    candidates.push_back({"via CryptDB, except HOM", nohom});
    SchemeSpec cdb = CanonicalScheme(measure);
    cdb.const_mode = ConstMode::kCryptDb;
    candidates.push_back({"via CryptDB", cdb});
  }
  candidates.push_back({"OPE", uniform(PpeClass::kOpe, false)});

  std::string best_label = "?";
  SecurityProfile best_profile;
  bool have_best = false;
  for (const ConstCandidate& cand : candidates) {
    CandidateAudit audit = TestSpec("EncConst", cand.label, cand.spec, bed, options);
    row.audit.push_back(audit);
    if (!audit.applicable || !audit.preserves) continue;
    // Recreate the profile for comparison.
    Result<LogEncryptor> enc = LogEncryptor::Create(
        cand.spec, bed.keys, bed.scenario.database, bed.scenario.log,
        bed.scenario.domains, EncOptions(options));
    if (!enc.ok()) continue;
    SecurityProfile profile = ConstProfile(*enc);
    if (!have_best || profile.Compare(best_profile) > 0) {
      have_best = true;
      best_profile = profile;
      best_label = cand.label;
    }
  }
  row.enc_const = best_label;
  return row;
}

Result<std::vector<TableIRow>> RegenerateTableI(
    const AppropriateSearchOptions& options) {
  std::vector<TableIRow> rows;
  for (MeasureKind m : {MeasureKind::kToken, MeasureKind::kStructure,
                        MeasureKind::kResult, MeasureKind::kAccessArea}) {
    DPE_ASSIGN_OR_RETURN(TableIRow row, SelectAppropriateClasses(m, options));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderTableI(const std::vector<TableIRow>& rows) {
  auto pad = [](std::string s, size_t w) {
    if (s.size() < w) s.append(w - s.size(), ' ');
    return s;
  };
  std::string out;
  out += pad("Distance Measure", 14) + " | " + pad("Shared Info", 18) + " | " +
         pad("Equivalence Notion", 26) + " | " + pad("c", 14) + " | " +
         pad("EncRel", 7) + " | " + pad("EncAttr", 7) + " | EncA.Const\n";
  out += std::string(120, '-') + "\n";
  for (const auto& r : rows) {
    out += pad(r.measure_name, 14) + " | " + pad(r.shared_information, 18) +
           " | " + pad(r.equivalence_notion, 26) + " | " +
           pad(r.characteristic, 14) + " | " + pad(r.enc_rel, 7) + " | " +
           pad(r.enc_attr, 7) + " | " + r.enc_const + "\n";
  }
  return out;
}

}  // namespace dpe::core
