// CompleteLink against the member-list oracle (complete_link_oracle.h):
// every merge's left id, right id and distance bits must match. The
// matrices are seeded and quantized to a few levels, so exact ties are
// everywhere; some levels include -0.0 and a negative value, which link at
// +0.0. The parallel-mining fixtures run too. The mining-equivalence
// scenario matrices are checked against the same oracle in
// tests/integration/mining_equivalence_test.cc.
//
// The oracle is O(n³), slow under the sanitizers, so most matrices are
// small and only a handful are near n = 200.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "mining/hierarchical.h"
#include "tests/mining/complete_link_oracle.h"
#include "tests/mining/random_matrices.h"

namespace dpe::mining {
namespace {

/// Symmetric n x n matrix whose off-diagonal cells are drawn uniformly
/// from `levels`.
distance::DistanceMatrix LevelMatrix(size_t n,
                                     const std::vector<double>& levels,
                                     uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, levels.size() - 1);
  distance::DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) m.set(i, j, levels[pick(rng)]);
  }
  return m;
}

/// `count` evenly spaced levels, starting at 0.0 for even seeds and at
/// 0.25 for odd ones.
std::vector<double> EvenLevels(int count, uint32_t seed) {
  std::vector<double> levels;
  for (int k = 0; k < count; ++k) {
    levels.push_back((k + static_cast<int>(seed % 2)) / 4.0);
  }
  return levels;
}

void ExpectMatchesOracle(const distance::DistanceMatrix& m,
                         const std::string& label) {
  auto got = CompleteLink(m);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  testutil::ExpectOracleMerges(m, *got, label);
}

std::string Label(size_t n, const std::string& levels, uint32_t seed) {
  return "n=" + std::to_string(n) + " levels=" + levels +
         " seed=" + std::to_string(seed);
}

TEST(CompleteLinkOracleTest, QuantizedLevels) {
  for (int count = 1; count <= 6; ++count) {
    for (uint32_t seed = 1; seed <= 4; ++seed) {
      for (size_t n : {2u, 3u, 4u, 5u, 7u, 10u, 16u, 25u, 40u}) {
        ExpectMatchesOracle(
            LevelMatrix(n, EvenLevels(count, seed), seed * 101 + n),
            Label(n, std::to_string(count), seed));
      }
    }
  }
}

TEST(CompleteLinkOracleTest, QuantizedLevelsNearTwoHundred) {
  // (n, level count)
  const std::pair<size_t, int> cases[] = {{197, 2}, {200, 4}, {203, 6}};
  for (const auto& [n, count] : cases) {
    ExpectMatchesOracle(LevelMatrix(n, EvenLevels(count, 0), 7),
                        Label(n, std::to_string(count), 7));
  }
}

TEST(CompleteLinkOracleTest, SignedZeroAndNegativeLevels) {
  const std::vector<std::vector<double>> level_sets = {
      {-0.0},
      {-0.0, 0.0},
      {-0.0, 0.0, 0.25, 0.5},
      {-0.25, 0.25},
      {-0.25, -0.0, 0.0, 0.5},
      {-0.25, -0.0, 0.25, 0.5, 0.75, 1.0},
  };
  for (size_t set = 0; set < level_sets.size(); ++set) {
    for (uint32_t seed = 1; seed <= 3; ++seed) {
      for (size_t n : {2u, 3u, 5u, 8u, 13u, 30u}) {
        ExpectMatchesOracle(LevelMatrix(n, level_sets[set], seed * 31 + n),
                            Label(n, "set" + std::to_string(set), seed));
      }
    }
  }
  ExpectMatchesOracle(LevelMatrix(150, level_sets[4], 5),
                      Label(150, "set4", 5));
}

TEST(CompleteLinkOracleTest, ParallelMiningFixtures) {
  // Every TieHeavyMatrix and SmoothMatrix parallel_mining_test.cc builds,
  // as (n, seed).
  const std::pair<size_t, uint32_t> tie_heavy[] = {
      {37, 1}, {37, 4}, {25, 7}, {37, 10}};
  const std::pair<size_t, uint32_t> smooth[] = {
      {41, 2}, {9, 3}, {41, 5}, {9, 6}, {31, 8}, {7, 9},
      {41, 11}, {9, 12}, {0, 13}, {1, 13}, {2, 13}, {3, 13}};
  for (const auto& [n, seed] : tie_heavy) {
    ExpectMatchesOracle(testutil::TieHeavyMatrix(n, seed),
                        "TieHeavyMatrix " + Label(n, "tenths", seed));
  }
  for (const auto& [n, seed] : smooth) {
    ExpectMatchesOracle(testutil::SmoothMatrix(n, seed),
                        "SmoothMatrix " + Label(n, "none", seed));
  }
}

}  // namespace
}  // namespace dpe::mining
