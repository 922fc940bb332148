// Experiment A1 — ablations of the design choices this implementation makes
// where the paper leaves room:
//  (a) global vs per-attribute DET constant keys for token distance
//      (the counterexample found during design);
//  (b) Def. 4 vs Def. 1 for the result measure: per-column CryptDB keys
//      satisfy item-wise result equivalence but break pairwise distances;
//  (c) result equivalence at the ciphertext vs the decrypted level;
//  (d) sensitivity of access-area distance to the x parameter;
//  (e) access-area extraction with/without the SELECT clause.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/equivalence.h"
#include "distance/access_area_distance.h"
#include "sql/parser.h"

using namespace dpe;
using namespace dpe::core;

namespace {

Result<double> MaxDelta(const SchemeSpec& spec, const crypto::KeyManager& keys,
                        const workload::Scenario& s,
                        const std::vector<sql::SelectQuery>& log) {
  LogEncryptor::Options options;
  options.paillier_bits = 256;
  options.ope_range_bits = 80;
  options.rng_seed = "ablate";
  DPE_ASSIGN_OR_RETURN(LogEncryptor enc,
                       LogEncryptor::Create(spec, keys, s.database, log,
                                            s.domains, options));
  DPE_ASSIGN_OR_RETURN(
      DpeCheckReport report,
      CheckDistancePreservation(spec.measure, enc, log, s.database, s.domains));
  return report.max_abs_delta;
}

}  // namespace

int main() {
  crypto::KeyManager keys("bench-ablation");
  workload::Scenario s = bench::MakeShop(42, 60, 40);

  // ---- (a) token constants: global vs per-attribute keys ----------------
  std::printf("== A1a: token distance — constant key scope ==\n");
  std::vector<sql::SelectQuery> crafted = s.log;
  crafted.push_back(
      sql::Parse("SELECT cid FROM customers WHERE age = 25").value());
  crafted.push_back(
      sql::Parse("SELECT oid FROM orders WHERE quantity = 25").value());
  SchemeSpec token_global = CanonicalScheme(MeasureKind::kToken);
  SchemeSpec token_per_attr = token_global;
  token_per_attr.global_const_key = false;
  auto dg = MaxDelta(token_global, keys, s, crafted);
  auto dp = MaxDelta(token_per_attr, keys, s, crafted);
  DPE_BENCH_CHECK(dg);
  DPE_BENCH_CHECK(dp);
  std::printf("  one shared DET key      : max|delta| = %.4f\n", *dg);
  std::printf("  per-attribute DET keys  : max|delta| = %.4f  <- the literal "
              "25 under two attributes breaks the token bijection\n\n",
              *dp);

  // ---- (b) result measure: shared vs per-column value keys --------------
  std::printf("== A1b: result distance — Def. 4 is weaker than Def. 1 ==\n");
  {
    // The canonical scheme (shared EQ/ORD keys) preserves distances;
    // CryptDB-as-is per-column keys preserve per-query result equivalence
    // but can change cross-query distances when plaintext tuples coincide
    // across attributes.
    std::vector<sql::SelectQuery> probes = s.log;
    probes.push_back(
        sql::Parse("SELECT age FROM customers WHERE city = 'berlin'").value());
    probes.push_back(
        sql::Parse("SELECT quantity FROM orders WHERE status = 'pending'")
            .value());
    auto shared = MaxDelta(CanonicalScheme(MeasureKind::kResult), keys, s, probes);
    DPE_BENCH_CHECK(shared);
    std::printf("  shared value keys (ours)   : max|delta| = %.4f\n", *shared);
    std::printf(
        "  per-column keys (CryptDB)  : preserves Def. 4 per query, but\n"
        "    plaintext tuples like (17) from customers.age and orders.quantity\n"
        "    coincide while their per-column ciphertexts cannot -> pairwise\n"
        "    distances change (demonstrated in tests/integration).\n\n");
  }

  // ---- (c) result equivalence: ciphertext vs decrypted level ------------
  std::printf("== A1c: result equivalence modes ==\n");
  {
    LogEncryptor enc = bench::MakeEncryptor(MeasureKind::kResult, keys, s, 256);
    auto ct_mode =
        CheckResultEquivalence(enc, s.log, ResultEquivalenceMode::kCiphertext);
    auto dec_mode =
        CheckResultEquivalence(enc, s.log, ResultEquivalenceMode::kDecrypted);
    DPE_BENCH_CHECK(ct_mode);
    DPE_BENCH_CHECK(dec_mode);
    std::printf("  ciphertext level: %zu checked, %zu aggregate queries "
                "skipped (Paillier outputs are probabilistic), %zu failed\n",
                ct_mode->checked, ct_mode->skipped, ct_mode->failed);
    std::printf("  decrypted level : %zu checked, %zu skipped, %zu failed "
                "(covers SUM/AVG, the CryptDB-proxy view)\n\n",
                dec_mode->checked, dec_mode->skipped, dec_mode->failed);
  }

  // ---- (d) x parameter sweep ---------------------------------------------
  std::printf("== A1d: access-area x parameter (Def. 5, default 0.5) ==\n");
  std::printf("  %-6s %-18s %-12s\n", "x", "mean distance", "max|delta|");
  for (double x : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    distance::AccessAreaDistance::Options mopt;
    mopt.x = x;
    mopt.extraction.clip_to_domain = false;
    distance::AccessAreaDistance measure(mopt);
    distance::MeasureContext ctx;
    ctx.domains = &s.domains;
    auto matrix = distance::DistanceMatrix::Compute(s.log, measure, ctx);
    DPE_BENCH_CHECK(matrix);
    double sum = 0;
    size_t count = 0;
    for (size_t i = 0; i < matrix->size(); ++i) {
      for (size_t j = i + 1; j < matrix->size(); ++j) {
        sum += matrix->at(i, j);
        ++count;
      }
    }
    // DPE preservation is x-independent (delta relations are what is
    // preserved); verify for the extremes.
    double delta = 0.0;
    if (x == 0.1 || x == 0.9) {
      LogEncryptor enc = bench::MakeEncryptor(MeasureKind::kAccessArea, keys, s, 256);
      auto artifacts = enc.EncryptAll();
      DPE_BENCH_CHECK(artifacts);
      distance::AccessAreaDistance enc_measure(mopt);
      distance::MeasureContext enc_ctx;
      enc_ctx.domains = &*artifacts->encrypted_domains;
      auto enc_matrix = distance::DistanceMatrix::Compute(
          artifacts->encrypted_log, enc_measure, enc_ctx);
      DPE_BENCH_CHECK(enc_matrix);
      auto d = distance::DistanceMatrix::MaxAbsDifference(*matrix, *enc_matrix);
      DPE_BENCH_CHECK(d);
      delta = *d;
    }
    std::printf("  %-6.2f %-18.4f %-12.4f\n", x,
                sum / static_cast<double>(count > 0 ? count : 1), delta);
  }

  // ---- (e) SELECT clause inclusion ---------------------------------------
  std::printf("\n== A1e: access areas with/without the SELECT clause ==\n");
  {
    auto q1 = sql::Parse("SELECT age FROM customers WHERE city = 'berlin'").value();
    auto q2 = sql::Parse("SELECT score FROM customers WHERE city = 'berlin'").value();
    for (bool include : {false, true}) {
      distance::AccessAreaDistance::Options mopt;
      mopt.extraction.include_select_clause = include;
      distance::AccessAreaDistance measure(mopt);
      distance::MeasureContext ctx;
      ctx.domains = &s.domains;
      auto d = measure.Distance(q1, q2, ctx);
      DPE_BENCH_CHECK(d);
      std::printf("  include_select_clause=%d : d(Q1,Q2) = %.4f\n", include, *d);
    }
    std::printf(
        "  Per the paper (§IV-C) the SELECT clause does NOT influence access\n"
        "  areas: with include=0 the two projections are at distance 0, which\n"
        "  is what allows PROB encryption of SELECT-only attributes.\n");
  }
  return 0;
}
