// The tentpole guarantee: the blocked parallel matrix build is bit-identical
// to the serial DistanceMatrix::Compute reference, across log sizes, thread
// counts, block sizes and measures.

#include "engine/matrix_builder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "distance/access_area_distance.h"
#include "distance/result_distance.h"
#include "distance/token_distance.h"
#include "engine/measure_registry.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

using common::ThreadPool;
using testutil::ExpectBitIdentical;
using testutil::Shop;

TEST(MatrixBuilderTest, ParallelEqualsSerialAcrossSizesAndThreads) {
  MeasureRegistry registry = MeasureRegistry::WithBuiltins();
  for (size_t log_size : {1u, 2u, 17u, 64u, 90u}) {
    workload::Scenario s = Shop(7 + log_size, log_size);
    distance::MeasureContext context = s.Context();
    for (const char* name : {"token", "structure"}) {
      auto measure = registry.Create(name);
      ASSERT_TRUE(measure.ok());
      auto serial = distance::DistanceMatrix::Compute(s.log, **measure, context);
      ASSERT_TRUE(serial.ok()) << serial.status();
      for (size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        MatrixBuilder builder(&pool, MatrixBuilderOptions{16});
        auto parallel = builder.Build(s.log, **measure, context);
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        ExpectBitIdentical(*serial, *parallel);
      }
    }
  }
}

TEST(MatrixBuilderTest, ParallelEqualsSerialForOddBlockSizes) {
  workload::Scenario s = Shop(3, 33);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, context);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  for (size_t block : {1u, 5u, 32u, 33u, 1000u}) {
    MatrixBuilder builder(&pool, MatrixBuilderOptions{block});
    auto parallel = builder.Build(s.log, token, context);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectBitIdentical(*serial, *parallel);
  }
}

TEST(MatrixBuilderTest, ParallelEqualsSerialForResultMeasure) {
  workload::Scenario s = Shop(11, 24);
  distance::MeasureContext context = s.Context();
  distance::ResultDistance serial_measure;
  auto serial =
      distance::DistanceMatrix::Compute(s.log, serial_measure, context);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ThreadPool pool(4);
  MatrixBuilder builder(&pool, MatrixBuilderOptions{8});
  distance::ResultDistance parallel_measure;
  auto parallel = builder.Build(s.log, parallel_measure, context);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectBitIdentical(*serial, *parallel);
}

TEST(MatrixBuilderTest, ParallelEqualsSerialForAccessArea) {
  workload::Scenario s = Shop(19, 30);
  distance::MeasureContext context = s.Context();
  distance::AccessAreaDistance measure;
  auto serial = distance::DistanceMatrix::Compute(s.log, measure, context);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ThreadPool pool(3);
  MatrixBuilder builder(&pool, MatrixBuilderOptions{7});
  auto parallel = builder.Build(s.log, measure, context);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectBitIdentical(*serial, *parallel);
}

TEST(MatrixBuilderTest, NullPoolRunsSerially) {
  workload::Scenario s = Shop(5, 12);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  MatrixBuilder builder(nullptr);
  auto serial = distance::DistanceMatrix::Compute(s.log, token, context);
  auto built = builder.Build(s.log, token, context);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(built.ok());
  ExpectBitIdentical(*serial, *built);
}

TEST(MatrixBuilderTest, PropagatesMeasureErrors) {
  // The result measure without a database must fail, not crash, under the
  // parallel build.
  workload::Scenario s = Shop(2, 10);
  distance::MeasureContext empty_context;
  distance::ResultDistance measure;
  ThreadPool pool(4);
  MatrixBuilder builder(&pool);
  auto built = builder.Build(s.log, measure, empty_context);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixBuilderTest, ComputeRowsFillsExactlyItsRows) {
  // Rows [first, end) of a matrix with room for `end` rows: the cells of
  // those rows (both halves) carry the serial reference's values and every
  // other cell keeps what it held — across block edges that clip the
  // range's first and last tiles.
  workload::Scenario s = Shop(23, 20);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, context);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  for (size_t block : {1u, 3u, 8u}) {
    MatrixBuilder builder(&pool, MatrixBuilderOptions{block});
    for (const auto& [first, end] : {std::pair<size_t, size_t>{0, 20},
                                     {19, 20},
                                     {5, 13},
                                     {0, 7},
                                     {9, 9}}) {
      distance::DistanceMatrix m(end);
      for (size_t i = 0; i < end; ++i) {
        for (size_t j = i + 1; j < end; ++j) m.set(i, j, -1.0);
      }
      ASSERT_TRUE(
          builder.ComputeRows(s.log, token, context, first, end, &m).ok());
      for (size_t i = 0; i < end; ++i) {
        for (size_t j = 0; j < end; ++j) {
          const size_t row = std::max(i, j);
          const double expected = i == j ? 0.0
                                  : row >= first ? serial->at(i, j)
                                                 : -1.0;
          EXPECT_EQ(m.at(i, j), expected)
              << "block " << block << " rows [" << first << ", " << end
              << ") cell " << i << "," << j;
        }
      }
    }
  }
}

TEST(MatrixBuilderTest, ComputeRowsRejectsRowsOutsideTheLogOrMatrix) {
  workload::Scenario s = Shop(29, 5);
  distance::TokenDistance token;
  MatrixBuilder builder(nullptr);
  distance::DistanceMatrix m(5);
  EXPECT_EQ(builder.ComputeRows(s.log, token, s.Context(), 2, 6, &m).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(builder.ComputeRows(s.log, token, s.Context(), 4, 3, &m).code(),
            StatusCode::kOutOfRange);
  distance::DistanceMatrix short_matrix(3);
  EXPECT_EQ(
      builder.ComputeRows(s.log, token, s.Context(), 0, 4, &short_matrix)
          .code(),
      StatusCode::kOutOfRange);
}

TEST(MatrixBuilderTest, ZeroBlockIsInvalidArgumentNotDivisionByZero) {
  // block == 0 used to be clamped silently; it must now surface as a typed
  // error from every entry point (the tile schedule divides by it).
  workload::Scenario s = Shop(41, 6);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  MatrixBuilder builder(nullptr, MatrixBuilderOptions{0});
  EXPECT_EQ(builder.Build(s.log, token, context).status().code(),
            StatusCode::kInvalidArgument);
  distance::DistanceMatrix m(6);
  EXPECT_EQ(builder.ComputeRows(s.log, token, context, 0, 0, &m).code(),
            StatusCode::kInvalidArgument);
}

TEST(MatrixBuilderTest, EmptyAndSingletonLogsBuildEmptySchedules) {
  workload::Scenario s = Shop(43, 1);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  ThreadPool pool(2);
  for (size_t block : {1u, 64u}) {
    MatrixBuilder builder(&pool, MatrixBuilderOptions{block});

    auto empty = builder.Build({}, token, context);
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_EQ(empty->size(), 0u);

    auto single = builder.Build(s.log, token, context);
    ASSERT_TRUE(single.ok()) << single.status();
    ASSERT_EQ(single->size(), 1u);
    EXPECT_EQ(single->at(0, 0), 0.0);
  }
}

}  // namespace
}  // namespace dpe::engine
