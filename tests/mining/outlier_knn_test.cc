#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "mining/knn.h"
#include "mining/outlier.h"
#include "tests/mining/random_matrices.h"

namespace dpe::mining {
namespace {

/// Cluster {0..4} tightly packed; 5 is far from everything.
distance::DistanceMatrix OneOutlier() {
  distance::DistanceMatrix m(6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = i + 1; j < 6; ++j) {
      m.set(i, j, (i == 5 || j == 5) ? 0.9 : 0.1);
    }
  }
  return m;
}

TEST(OutlierTest, DetectsTheIsolatedPoint) {
  OutlierOptions opt;
  opt.p = 0.9;
  opt.d = 0.5;
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_EQ(r.outliers, (std::vector<size_t>{5}));
  EXPECT_TRUE(r.is_outlier[5]);
  EXPECT_FALSE(r.is_outlier[0]);
}

TEST(OutlierTest, ThresholdDSensitivity) {
  OutlierOptions opt;
  opt.p = 0.9;
  opt.d = 0.95;  // nothing is farther than 0.95
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_TRUE(r.outliers.empty());
}

TEST(OutlierTest, FractionPSensitivity) {
  // Point 5 is far from 5/5 others; core points are far from 1/5 others.
  OutlierOptions opt;
  opt.p = 0.15;
  opt.d = 0.5;
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_EQ(r.outliers.size(), 6u);  // everyone is far from >= 15% now
}

TEST(OutlierTest, InvalidPRejected) {
  EXPECT_FALSE(DistanceBasedOutliers(OneOutlier(), {0.0, 0.5}).ok());
  EXPECT_FALSE(DistanceBasedOutliers(OneOutlier(), {1.5, 0.5}).ok());
}

TEST(OutlierTest, EmptyMatrix) {
  auto r = DistanceBasedOutliers(distance::DistanceMatrix(0), OutlierOptions{})
               .value();
  EXPECT_TRUE(r.outliers.empty());
}

TEST(KnnTest, NeighborsSortedByDistanceThenIndex) {
  distance::DistanceMatrix m(4);
  m.set(0, 1, 0.5);
  m.set(0, 2, 0.2);
  m.set(0, 3, 0.5);
  m.set(1, 2, 0.3);
  m.set(1, 3, 0.4);
  m.set(2, 3, 0.6);
  auto nn = NearestNeighbors(m, 0, 3).value();
  EXPECT_EQ(nn, (std::vector<size_t>{2, 1, 3}));  // tie 1 vs 3 -> lower index
}

TEST(KnnTest, SelectionMatchesAFullStableSortForEveryK) {
  // The selection's order is the plaintext (distance, index) order: a
  // stable sort of the other indices by distance, cut at k. Tie-heavy
  // matrices (11 levels) make that index tie-break decide most positions.
  const size_t n = 37;
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    for (const distance::DistanceMatrix& m :
         {testutil::TieHeavyMatrix(n, seed), testutil::SmoothMatrix(n, seed)}) {
      for (size_t i = 0; i < n; ++i) {
        std::vector<size_t> expect;
        for (size_t j = 0; j < n; ++j) {
          if (j != i) expect.push_back(j);
        }
        std::stable_sort(expect.begin(), expect.end(), [&](size_t a, size_t b) {
          return m.at(i, a) < m.at(i, b);
        });
        for (size_t k = 1; k < n; ++k) {
          auto nn = NearestNeighbors(m, i, k);
          ASSERT_TRUE(nn.ok()) << nn.status();
          EXPECT_EQ(*nn, std::vector<size_t>(expect.begin(),
                                             expect.begin() + k))
              << "seed " << seed << ", point " << i << ", k " << k;
        }
      }
    }
  }
}

TEST(KnnTest, InfiniteCellsNeverReturnThePointItself) {
  // Row 0 is +inf everywhere but d(0, 8): the second neighbour is the
  // lowest-indexed +inf cell, never point 0 itself.
  const double inf = std::numeric_limits<double>::infinity();
  distance::DistanceMatrix m(9);
  for (size_t j = 1; j < 9; ++j) m.set(0, j, inf);
  m.set(0, 8, 0.5);
  EXPECT_EQ(NearestNeighbors(m, 0, 2).value(), (std::vector<size_t>{8, 1}));
  EXPECT_EQ(NearestNeighbors(m, 0, 8).value(),
            (std::vector<size_t>{8, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(KnnTest, NanCellIsInvalidArgument) {
  distance::DistanceMatrix m(9);
  for (size_t i = 0; i < 9; ++i) {
    for (size_t j = i + 1; j < 9; ++j) m.set(i, j, 0.5);
  }
  m.set(0, 3, std::numeric_limits<double>::quiet_NaN());
  auto nn = NearestNeighbors(m, 3, 2);
  ASSERT_FALSE(nn.ok());
  EXPECT_EQ(nn.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nn.status().message().find("(3, 0)"), std::string::npos)
      << nn.status();
  // Rows without the NaN cell are unaffected.
  EXPECT_EQ(NearestNeighbors(m, 1, 2).value(), (std::vector<size_t>{0, 2}));
}

TEST(KnnTest, BoundsChecked) {
  distance::DistanceMatrix m(3);
  EXPECT_FALSE(NearestNeighbors(m, 5, 1).ok());
  EXPECT_FALSE(NearestNeighbors(m, 0, 3).ok());
}

TEST(KnnTest, MajorityVoteClassification) {
  auto m = OneOutlier();
  Labels labels = {0, 0, 0, 1, 1, 1};
  // Point 0's 3 nearest are 1,2,3 (0.1 each; tie broken by index): votes
  // {0:2, 1:1} -> label 0.
  EXPECT_EQ(KnnClassify(m, labels, 0, 3).value(), 0);
}

TEST(KnnTest, LabelsSizeValidated) {
  auto m = OneOutlier();
  EXPECT_FALSE(KnnClassify(m, {0, 1}, 0, 2).ok());
}

}  // namespace
}  // namespace dpe::mining
