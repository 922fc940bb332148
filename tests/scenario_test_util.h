// Shared test helpers for suites that drive the engine over a generated
// scenario (tests/engine, tests/store). The bench counterpart lives in
// bench/bench_util.h.

#ifndef DPE_TESTS_SCENARIO_TEST_UTIL_H_
#define DPE_TESTS_SCENARIO_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <string>
#include <vector>

#include "distance/matrix.h"
#include "engine/driver.h"
#include "store/matrix_store.h"
#include "workload/scenarios.h"

namespace dpe::testutil {

/// Small web-shop scenario, deterministic in the seed.
inline workload::Scenario Shop(uint64_t seed, size_t log_size) {
  workload::ScenarioOptions opt;
  opt.seed = seed;
  opt.rows_per_relation = 40;
  opt.log_size = log_size;
  auto s = workload::MakeShopScenario(opt);
  EXPECT_TRUE(s.ok()) << s.status();
  return std::move(s).value();
}

/// Asserts every cell of `a` has the bit pattern of the same cell of `b` —
/// bit-identity, so a NaN never equals 0.5 and -0.0 never equals +0.0 —
/// and names the first cell that differs.
inline void ExpectBitIdentical(const distance::DistanceMatrix& a,
                               const distance::DistanceMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      const double x = a.at(i, j), y = b.at(i, j);
      if (std::bit_cast<uint64_t>(x) != std::bit_cast<uint64_t>(y)) {
        ADD_FAILURE() << "first differing cell (" << i << ", " << j
                      << "): " << std::setprecision(17) << x << " vs " << y;
        return;
      }
    }
  }
}

/// Merges `dir`, where every shard of `plan` already landed, the one way
/// sharded builds merge: a shard-driver drive, which checks each shard
/// against the plan before merging it. merged_from_workers == k in the
/// report means no shard was discarded and recomputed.
inline Result<engine::DriveReport> MergeShardDir(
    const std::string& dir, const std::string& matrix,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const engine::ShardPlan& plan) {
  DPE_ASSIGN_OR_RETURN(store::MatrixStore store,
                       store::MatrixStore::OpenExisting(dir));
  engine::LeaseBoard::Options board_options;
  board_options.dir = dir;
  board_options.matrix = matrix;
  board_options.shard_count = static_cast<uint32_t>(plan.shard_count());
  DPE_ASSIGN_OR_RETURN(std::unique_ptr<engine::LeaseBoard> board,
                       engine::LeaseBoard::Open(board_options));
  return engine::DriveShards(matrix, queries, measure, context, plan, store,
                             *board, engine::MultiHostOptions{});
}

}  // namespace dpe::testutil

#endif  // DPE_TESTS_SCENARIO_TEST_UTIL_H_
