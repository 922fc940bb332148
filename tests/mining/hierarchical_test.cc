#include "mining/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace dpe::mining {
namespace {

distance::DistanceMatrix LineMatrix() {
  // Points at positions 0, 1, 2, 10, 11 (distances scaled by 1/20).
  double pos[] = {0, 1, 2, 10, 11};
  distance::DistanceMatrix m(5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      m.set(i, j, std::abs(pos[i] - pos[j]) / 20.0);
    }
  }
  return m;
}

TEST(CompleteLinkTest, DendrogramShape) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.leaf_count, 5u);
  EXPECT_EQ(d.merges.size(), 4u);
  // Merge distances are non-decreasing for complete link on a metric.
  for (size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance);
  }
}

TEST(CompleteLinkTest, CutK2SeparatesTheGap) {
  auto d = CompleteLink(LineMatrix()).value();
  auto labels = d.CutK(2).value();
  EXPECT_EQ(labels, (Labels{0, 0, 0, 1, 1}));
}

TEST(CompleteLinkTest, CutK1AndKn) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.CutK(1).value(), (Labels{0, 0, 0, 0, 0}));
  auto singletons = d.CutK(5).value();
  std::set<int> distinct(singletons.begin(), singletons.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(CompleteLinkTest, CompleteLinkUsesMaxLinkage) {
  // First merge must be the globally closest pair (0,1) or (1,2) or (3,4),
  // all at 1/20; ties break to the smallest pair -> (0,1).
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.merges[0].left, 0u);
  EXPECT_EQ(d.merges[0].right, 1u);
  EXPECT_DOUBLE_EQ(d.merges[0].distance, 1.0 / 20.0);
  // Merging {0,1} with {2} costs max(d(0,2), d(1,2)) = 2/20, while {3,4}
  // costs 1/20 -> second merge is (3,4).
  EXPECT_EQ(d.merges[1].left, 3u);
  EXPECT_EQ(d.merges[1].right, 4u);
}

TEST(CompleteLinkTest, InvalidCutRejected) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_FALSE(d.CutK(0).ok());
  EXPECT_FALSE(d.CutK(6).ok());
}

TEST(CompleteLinkTest, DeterministicAcrossRuns) {
  auto d1 = CompleteLink(LineMatrix()).value();
  auto d2 = CompleteLink(LineMatrix()).value();
  ASSERT_EQ(d1.merges.size(), d2.merges.size());
  for (size_t i = 0; i < d1.merges.size(); ++i) {
    EXPECT_EQ(d1.merges[i].left, d2.merges[i].left);
    EXPECT_EQ(d1.merges[i].right, d2.merges[i].right);
  }
}

TEST(CompleteLinkTest, EmptyAndSingleton) {
  auto d0 = CompleteLink(distance::DistanceMatrix(0)).value();
  EXPECT_EQ(d0.merges.size(), 0u);
  auto d1 = CompleteLink(distance::DistanceMatrix(1)).value();
  EXPECT_EQ(d1.merges.size(), 0u);
  EXPECT_EQ(d1.CutK(1).value(), (Labels{0}));
}

/// Three points with d(0, 1) = 0.5 and d(0, 2) = d(1, 2) = `far`.
distance::DistanceMatrix ThreePoints(double far) {
  distance::DistanceMatrix m(3);
  m.set(0, 1, 0.5);
  m.set(0, 2, far);
  m.set(1, 2, far);
  return m;
}

void ExpectNonFiniteRejected(double far) {
  auto d = CompleteLink(ThreePoints(far));
  ASSERT_FALSE(d.ok()) << far;
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("cell (0, 2)"), std::string::npos)
      << d.status().message();
}

TEST(CompleteLinkTest, InfiniteCellIsInvalidArgument) {
  // No +inf link is < a min-pair scan's +inf start, so no pair would ever
  // be chosen; the member-list scan then crashed on a stale default pair.
  ExpectNonFiniteRejected(std::numeric_limits<double>::infinity());
  ExpectNonFiniteRejected(-std::numeric_limits<double>::infinity());
}

TEST(CompleteLinkTest, NanCellIsInvalidArgument) {
  // std::max(0.0, NaN) is 0.0, so a NaN pair would silently merge first,
  // as the closest pair.
  ExpectNonFiniteRejected(std::nan(""));
}

}  // namespace
}  // namespace dpe::mining
