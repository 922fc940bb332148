// The paper's headline claim: "the mining results on cipher-text and on
// plain-text data are the same. For instance, data items are assigned to the
// same clusters." Checked for k-medoids, DBSCAN, complete-link, DB(p,D)
// outliers and kNN, across all four measures.

#include <gtest/gtest.h>

#include "core/dpe.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/knn.h"
#include "mining/outlier.h"
#include "mining/partition.h"
#include "tests/mining/complete_link_oracle.h"
#include "workload/scenarios.h"

namespace dpe::core {
namespace {

class MiningEquivalence : public ::testing::TestWithParam<MeasureKind> {
 protected:
  static const workload::Scenario& Scenario() {
    static workload::Scenario s = [] {
      workload::ScenarioOptions opt;
      opt.seed = 77;
      opt.rows_per_relation = 40;
      opt.log_size = 30;
      return workload::MakeShopScenario(opt).value();
    }();
    return s;
  }

  static const DpeMatrices& Matrices(MeasureKind kind) {
    static std::map<MeasureKind, DpeMatrices> cache;
    auto it = cache.find(kind);
    if (it == cache.end()) {
      crypto::KeyManager keys("mining-equivalence");
      LogEncryptor::Options options;
      options.paillier_bits = 256;
      options.ope_range_bits = 80;
      options.rng_seed = "mine";
      auto enc = LogEncryptor::Create(CanonicalScheme(kind), keys,
                                      Scenario().database, Scenario().log,
                                      Scenario().domains, options)
                     .value();
      auto matrices = ComputeBothMatrices(kind, enc, Scenario().log,
                                          Scenario().database, Scenario().domains)
                          .value();
      it = cache.emplace(kind, std::move(matrices)).first;
    }
    return it->second;
  }
};

TEST_P(MiningEquivalence, KMedoidsSameClusters) {
  const DpeMatrices& m = Matrices(GetParam());
  for (size_t k : {2u, 3u, 5u}) {
    mining::KMedoidsOptions opt;
    opt.k = k;
    auto plain = mining::KMedoids(m.plain, opt).value();
    auto enc = mining::KMedoids(m.encrypted, opt).value();
    EXPECT_TRUE(mining::SamePartition(plain.labels, enc.labels)) << "k=" << k;
    EXPECT_EQ(mining::RandIndex(plain.labels, enc.labels), 1.0);
    EXPECT_EQ(plain.medoids, enc.medoids);
  }
}

TEST_P(MiningEquivalence, DbscanSameClustersAndNoise) {
  const DpeMatrices& m = Matrices(GetParam());
  for (double eps : {0.2, 0.4, 0.6}) {
    mining::DbscanOptions opt;
    opt.epsilon = eps;
    opt.min_points = 3;
    auto plain = mining::Dbscan(m.plain, opt).value();
    auto enc = mining::Dbscan(m.encrypted, opt).value();
    EXPECT_EQ(plain.labels, enc.labels) << "eps=" << eps;
    EXPECT_EQ(plain.cluster_count, enc.cluster_count);
  }
}

TEST_P(MiningEquivalence, CompleteLinkSameDendrogram) {
  const DpeMatrices& m = Matrices(GetParam());
  auto plain = mining::CompleteLink(m.plain).value();
  auto enc = mining::CompleteLink(m.encrypted).value();
  ASSERT_EQ(plain.merges.size(), enc.merges.size());
  for (size_t i = 0; i < plain.merges.size(); ++i) {
    EXPECT_EQ(plain.merges[i].left, enc.merges[i].left) << i;
    EXPECT_EQ(plain.merges[i].right, enc.merges[i].right) << i;
    EXPECT_EQ(plain.merges[i].distance, enc.merges[i].distance) << i;
  }
  for (size_t k : {2u, 4u}) {
    EXPECT_EQ(plain.CutK(k).value(), enc.CutK(k).value());
  }
}

TEST_P(MiningEquivalence, OutliersSameSet) {
  const DpeMatrices& m = Matrices(GetParam());
  for (double d : {0.4, 0.6, 0.8}) {
    mining::OutlierOptions opt;
    opt.p = 0.8;
    opt.d = d;
    auto plain = mining::DistanceBasedOutliers(m.plain, opt).value();
    auto enc = mining::DistanceBasedOutliers(m.encrypted, opt).value();
    EXPECT_EQ(plain.outliers, enc.outliers) << "D=" << d;
  }
}

TEST_P(MiningEquivalence, KnnSameNeighbors) {
  const DpeMatrices& m = Matrices(GetParam());
  for (size_t i = 0; i < m.plain.size(); i += 7) {
    EXPECT_EQ(mining::NearestNeighbors(m.plain, i, 5).value(),
              mining::NearestNeighbors(m.encrypted, i, 5).value())
        << "point " << i;
  }
}

// The same scenario matrices, plain and encrypted, against the test-only
// member-list oracle: every merge's ids and distance bits.
class CompleteLinkOracleTest : public MiningEquivalence {};

TEST_P(CompleteLinkOracleTest, ScenarioMatricesMatchOracle) {
  const DpeMatrices& m = Matrices(GetParam());
  testutil::ExpectOracleMerges(m.plain, mining::CompleteLink(m.plain).value(),
                               "plain");
  testutil::ExpectOracleMerges(m.encrypted,
                               mining::CompleteLink(m.encrypted).value(),
                               "encrypted");
}

std::string MeasureParamName(
    const ::testing::TestParamInfo<MeasureKind>& info) {
  std::string n = MeasureKindName(info.param);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

const auto kAllMeasures =
    ::testing::Values(MeasureKind::kToken, MeasureKind::kStructure,
                      MeasureKind::kResult, MeasureKind::kAccessArea);

INSTANTIATE_TEST_SUITE_P(AllMeasures, MiningEquivalence, kAllMeasures,
                         MeasureParamName);
INSTANTIATE_TEST_SUITE_P(AllMeasures, CompleteLinkOracleTest, kAllMeasures,
                         MeasureParamName);

}  // namespace
}  // namespace dpe::core
