// Regression tests for the bounds-checked DistanceMatrix accessors (at/set
// used to silently read/write out of bounds for any caller other than
// MaxAbsDifference), MaxAbsDifference's NaN and signed-zero rules, plus the
// DistanceTriangle row layout and its round trips through a matrix.

#include "distance/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace dpe::distance {
namespace {

TEST(DistanceMatrixTest, CheckedAtReadsInRange) {
  DistanceMatrix m(3);
  m.set(0, 2, 0.25);
  auto d = m.At(0, 2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 0.25);
  auto mirrored = m.At(2, 0);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(*mirrored, 0.25);
}

TEST(DistanceMatrixTest, CheckedAtRejectsOutOfRange) {
  DistanceMatrix m(3);
  EXPECT_EQ(m.At(3, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.At(0, 3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.At(100, 100).status().code(), StatusCode::kOutOfRange);
}

TEST(DistanceMatrixTest, CheckedSetWritesSymmetrically) {
  DistanceMatrix m(4);
  ASSERT_TRUE(m.Set(1, 3, 0.5).ok());
  EXPECT_EQ(m.at(1, 3), 0.5);
  EXPECT_EQ(m.at(3, 1), 0.5);
}

TEST(DistanceMatrixTest, CheckedSetRejectsOutOfRange) {
  DistanceMatrix m(2);
  EXPECT_EQ(m.Set(2, 0, 0.1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.Set(0, 2, 0.1).code(), StatusCode::kOutOfRange);
  // The matrix must be untouched by the failed write.
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_EQ(m.at(i, j), 0.0);
  }
}

TEST(DistanceMatrixTest, EmptyMatrixRejectsEverything) {
  DistanceMatrix m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.At(0, 0).ok());
  EXPECT_FALSE(m.Set(0, 0, 1.0).ok());
}

TEST(DistanceMatrixTest, MaxAbsDifferenceSizeMismatch) {
  DistanceMatrix a(2), b(3);
  EXPECT_EQ(DistanceMatrix::MaxAbsDifference(a, b).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DistanceMatrixTest, MaxAbsDifferenceIsNanWhenANanMeetsAnotherValue) {
  // A NaN cell must never read as a difference of 0.
  DistanceMatrix a(3), b(3);
  a.set(0, 2, std::numeric_limits<double>::quiet_NaN());
  b.set(0, 2, 0.5);
  EXPECT_TRUE(std::isnan(DistanceMatrix::MaxAbsDifference(a, b).value()));
  EXPECT_TRUE(std::isnan(DistanceMatrix::MaxAbsDifference(b, a).value()));
}

TEST(DistanceMatrixTest, MaxAbsDifferenceOfSignedZerosIsZero) {
  DistanceMatrix a(2), b(2);
  a.set(0, 1, -0.0);
  b.set(0, 1, 0.0);
  EXPECT_EQ(DistanceMatrix::MaxAbsDifference(a, b).value(), 0.0);
}

TEST(DistanceMatrixTest, MaxAbsDifferenceOfIdenticalBitsIsZero) {
  // Equal NaN bits and +inf against +inf are no difference, though
  // NaN - NaN and inf - inf are both NaN.
  DistanceMatrix a(3);
  a.set(0, 1, std::numeric_limits<double>::quiet_NaN());
  a.set(0, 2, std::numeric_limits<double>::infinity());
  const DistanceMatrix b = a;
  EXPECT_EQ(DistanceMatrix::MaxAbsDifference(a, b).value(), 0.0);
}

/// A symmetric n x n matrix with distinct cells: d(i, j) = i + j / 64.
DistanceMatrix Distinct(size_t n) {
  DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, static_cast<double>(i) + static_cast<double>(j) / 64.0);
    }
  }
  return m;
}

DistanceTriangle TriangleOf(const DistanceMatrix& m) {
  DistanceTriangle t;
  t.ExtendFrom(m);
  return t;
}

TEST(DistanceTriangleTest, RowsAreContiguousPrefixesOfTheMatrixRows) {
  const DistanceMatrix m = Distinct(6);
  const DistanceTriangle t = TriangleOf(m);
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(t.cells(), 15u);
  EXPECT_EQ(t.bytes(), 15 * sizeof(double));
  EXPECT_TRUE(t.Row(0).empty());
  for (size_t r = 0; r < 6; ++r) {
    ASSERT_EQ(t.Row(r).size(), r);
    for (size_t c = 0; c < r; ++c) EXPECT_EQ(t.Row(r)[c], m.at(c, r));
  }
  // Rows [2, 5) are one run: row 2's cells, then row 3's, then row 4's.
  const std::span<const double> run = t.Rows(2, 5);
  ASSERT_EQ(run.size(), 2u + 3 + 4);
  EXPECT_EQ(run[0], m.at(0, 2));
  EXPECT_EQ(run[2], m.at(0, 3));
  EXPECT_EQ(run[8], m.at(3, 4));
}

TEST(DistanceTriangleTest, AppendRowRequiresExactlyRowsCells) {
  DistanceTriangle t;
  ASSERT_TRUE(t.AppendRow({}).ok());  // row 0 holds no cells
  const std::vector<double> one = {0.5};
  ASSERT_TRUE(t.AppendRow(one).ok());
  EXPECT_EQ(t.AppendRow(one).code(), StatusCode::kInvalidArgument);
  const std::vector<double> three = {0.1, 0.2, 0.3};
  EXPECT_EQ(t.AppendRow(three).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.rows(), 2u);  // failed appends leave the triangle as it was
  ASSERT_TRUE(t.AppendRow(std::span<const double>(three).first(2)).ok());
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.Row(2)[1], 0.2);
}

TEST(DistanceTriangleTest, ExtendFromAppendsOnlyTheMissingRows) {
  const DistanceMatrix big = Distinct(7);
  DistanceTriangle t = TriangleOf(Distinct(4));
  DistanceMatrix other(7);  // all zeros: rows [0, 4) must not be re-read
  t.ExtendFrom(other);
  EXPECT_EQ(t.rows(), 7u);
  EXPECT_EQ(t.Row(3)[2], big.at(2, 3));
  EXPECT_EQ(t.Row(6)[0], 0.0);
  // Extending from a matrix with no new rows is a no-op.
  t.ExtendFrom(Distinct(5));
  EXPECT_EQ(t.rows(), 7u);
}

TEST(DistanceTriangleTest, CopyRowsFillsTheLeadingBlockOfALargerMatrix) {
  const DistanceMatrix m = Distinct(5);
  const DistanceTriangle t = TriangleOf(m);

  DistanceMatrix same(5);
  DistanceTriangle::CopyRows(t.Rows(0, 5), 0, 5, &same);
  auto diff = DistanceMatrix::MaxAbsDifference(m, same);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(*diff, 0.0);

  DistanceMatrix larger(8);
  DistanceTriangle::CopyRows(t.Rows(0, 5), 0, 5, &larger);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(larger.at(i, j), i < 5 && j < 5 ? m.at(i, j) : 0.0)
          << i << "," << j;
    }
  }

  // A smaller matrix receives the rows that fit.
  DistanceMatrix smaller(3);
  DistanceTriangle::CopyRows(t.Rows(0, 3), 0, 3, &smaller);
  EXPECT_EQ(smaller.at(1, 2), m.at(1, 2));
  EXPECT_EQ(smaller.at(2, 0), m.at(0, 2));
}

TEST(DistanceTriangleTest, CopyRowsWritesExactlyItsRowRange) {
  // Rows [first, end) of a 70-row triangle — a range that straddles the
  // 32 x 32 mirror tiles — land in both halves; no other cell is touched.
  const DistanceMatrix m = Distinct(70);
  const DistanceTriangle t = TriangleOf(m);
  for (const auto& [first, end] : {std::pair<size_t, size_t>{0, 70},
                                   {5, 37},
                                   {33, 34},
                                   {40, 40},
                                   {31, 70}}) {
    DistanceMatrix out(70);
    DistanceTriangle::CopyRows(t.Rows(first, end), first, end, &out);
    for (size_t i = 0; i < 70; ++i) {
      for (size_t j = 0; j < 70; ++j) {
        const size_t row = std::max(i, j);
        const bool in_range = i != j && row >= first && row < end;
        EXPECT_EQ(out.at(i, j), in_range ? m.at(i, j) : 0.0)
            << "rows [" << first << ", " << end << ") cell " << i << ","
            << j;
      }
    }
  }
}

}  // namespace
}  // namespace dpe::distance
