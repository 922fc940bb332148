#include "core/equivalence.h"

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace dpe::core {
namespace {

class EquivalenceTest : public ::testing::Test {
 protected:
  static const workload::Scenario& Scenario() {
    static workload::Scenario s = [] {
      workload::ScenarioOptions opt;
      opt.seed = 9;
      opt.rows_per_relation = 30;
      opt.log_size = 30;
      return workload::MakeShopScenario(opt).value();
    }();
    return s;
  }

  static LogEncryptor Make(const SchemeSpec& spec) {
    static crypto::KeyManager keys("equivalence-test");
    LogEncryptor::Options options;
    options.paillier_bits = 256;
    options.ope_range_bits = 80;
    options.rng_seed = "eq-seed";
    return LogEncryptor::Create(spec, keys, Scenario().database, Scenario().log,
                                Scenario().domains, options)
        .value();
  }
};

TEST_F(EquivalenceTest, TokenEquivalenceHoldsForCanonicalScheme) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kToken));
  auto report = CheckTokenEquivalence(enc, Scenario().log).value();
  EXPECT_EQ(report.checked, Scenario().log.size());
  EXPECT_TRUE(report.ok()) << report.first_failure;
}

TEST_F(EquivalenceTest, TokenEquivalenceFailsWithPerAttributeKeys) {
  // Per-attribute constant keys break token equivalence when the same
  // literal occurs under two attributes (the distance-level counterexample
  // is CounterexampleTest.PerAttributeDetKeysBreakTokenDistance).
  SchemeSpec spec = CanonicalScheme(MeasureKind::kToken);
  spec.global_const_key = false;
  LogEncryptor enc = Make(spec);
  auto report = CheckTokenEquivalence(enc, Scenario().log).value();
  EXPECT_GT(report.failed, 0u);
}

TEST_F(EquivalenceTest, TokenEquivalenceFailsWithProbConstants) {
  SchemeSpec spec = CanonicalScheme(MeasureKind::kToken);
  spec.uniform_const = crypto::PpeClass::kProb;
  LogEncryptor enc = Make(spec);
  auto report = CheckTokenEquivalence(enc, Scenario().log).value();
  EXPECT_GT(report.failed, 0u);
}

TEST_F(EquivalenceTest, StructuralEquivalenceHoldsForCanonicalScheme) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kStructure));
  auto report = CheckStructuralEquivalence(enc, Scenario().log).value();
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.checked, Scenario().log.size());
}

TEST_F(EquivalenceTest, StructuralEquivalenceAlsoHoldsUnderTokenScheme) {
  // DET constants are stricter than needed for structure: still preserving.
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kToken));
  auto report = CheckStructuralEquivalence(enc, Scenario().log).value();
  EXPECT_TRUE(report.ok()) << report.first_failure;
}

TEST_F(EquivalenceTest, ResultEquivalenceDecryptedMode) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kResult));
  auto report =
      CheckResultEquivalence(enc, Scenario().log, ResultEquivalenceMode::kDecrypted)
          .value();
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.checked, Scenario().log.size());
}

TEST_F(EquivalenceTest, ResultEquivalenceCiphertextModeOnSpjQueries) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kResult));
  auto report =
      CheckResultEquivalence(enc, Scenario().log, ResultEquivalenceMode::kCiphertext)
          .value();
  EXPECT_TRUE(report.ok()) << report.first_failure;
  // Aggregate queries are skipped in ciphertext mode (Paillier aggregates
  // are probabilistic); some must have been checked though.
  EXPECT_GT(report.checked - report.skipped, 0u);
}

TEST_F(EquivalenceTest, ResultEquivalenceRequiresCryptDbMode) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kToken));
  EXPECT_FALSE(CheckResultEquivalence(enc, Scenario().log,
                                      ResultEquivalenceMode::kDecrypted)
                   .ok());
}

TEST_F(EquivalenceTest, AccessAreaEquivalenceHoldsForCanonicalScheme) {
  LogEncryptor enc = Make(CanonicalScheme(MeasureKind::kAccessArea));
  auto report =
      CheckAccessAreaEquivalence(enc, Scenario().log, Scenario().domains).value();
  EXPECT_TRUE(report.ok()) << report.first_failure;
  EXPECT_EQ(report.checked, Scenario().log.size());
}

TEST_F(EquivalenceTest, AccessAreaEquivalenceFailsWithProbConstants) {
  SchemeSpec spec = CanonicalScheme(MeasureKind::kAccessArea);
  spec.const_mode = ConstMode::kUniform;
  spec.uniform_const = crypto::PpeClass::kProb;
  spec.global_const_key = false;
  LogEncryptor enc = Make(spec);
  auto report =
      CheckAccessAreaEquivalence(enc, Scenario().log, Scenario().domains).value();
  EXPECT_GT(report.failed, 0u);
}

TEST_F(EquivalenceTest, DispatcherRoutesByKind) {
  for (MeasureKind m : {MeasureKind::kToken, MeasureKind::kStructure,
                        MeasureKind::kResult, MeasureKind::kAccessArea}) {
    LogEncryptor enc = Make(CanonicalScheme(m));
    auto report = CheckEquivalence(m, enc, Scenario().log, Scenario().domains);
    ASSERT_TRUE(report.ok()) << MeasureKindName(m);
    EXPECT_TRUE(report->ok()) << MeasureKindName(m) << ": "
                              << report->first_failure;
  }
}

}  // namespace
}  // namespace dpe::core
