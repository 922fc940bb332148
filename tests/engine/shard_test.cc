// Sharded matrix builds: the plan partitions the tile schedule
// deterministically, and a k-shard build round-tripped through on-disk
// shard files merges bit-identical to MatrixBuilder::Build for every
// built-in measure. Torn, doctored and foreign shard files are the shard
// driver's to discard and recompute (tests/engine/driver_test.cc).

#include "engine/shard.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "distance/token_distance.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::MergeShardDir;
using testutil::Shop;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("shard_test_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

// -- Schedule / plan properties ----------------------------------------------

TEST_F(ShardTest, TileScheduleCoversUpperTriangleExactlyOnce) {
  for (size_t n : {0u, 1u, 2u, 7u, 16u, 33u}) {
    for (size_t block : {1u, 3u, 8u, 50u}) {
      const auto tiles = TileSchedule(n, block);
      EXPECT_EQ(tiles.size(), TileCount(n, block));
      std::vector<int> seen(n * n, 0);
      size_t cells = 0;
      for (const auto& [bi, bj] : tiles) {
        size_t tile_cells = 0;
        ForEachTileCell(n, block, bi, bj, [&](size_t i, size_t j) {
          ASSERT_LT(i, j);
          ++seen[i * n + j];
          ++cells;
          ++tile_cells;
        });
        // The closed-form count matches the traversal it summarizes.
        EXPECT_EQ(TileCellCount(n, block, bi, bj), tile_cells)
            << "tile (" << bi << ", " << bj << ") n=" << n
            << " block=" << block;
      }
      EXPECT_EQ(cells, n * (n - 1) / 2) << "n=" << n << " block=" << block;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          EXPECT_EQ(seen[i * n + j], 1)
              << "cell (" << i << ", " << j << ") n=" << n
              << " block=" << block;
        }
      }
    }
  }
}

TEST_F(ShardTest, RangeWalkerAndCellCountMatchTheMaterializedSchedule) {
  // ForEachTileInRange and RangeCellCount (the sparse-shard codec's
  // allocation-free walkers) must agree with the materialized TileSchedule
  // on every subrange, including out-of-schedule tails (clamped).
  for (size_t n : {0u, 1u, 5u, 16u, 33u}) {
    for (size_t block : {1u, 4u, 50u}) {
      const auto tiles = TileSchedule(n, block);
      for (size_t begin = 0; begin <= tiles.size(); ++begin) {
        for (size_t end : {begin, (begin + tiles.size() + 1) / 2,
                           tiles.size(), tiles.size() + 7}) {
          if (end < begin) continue;
          std::vector<std::pair<size_t, size_t>> walked;
          common::ForEachTileInRange(
              n, block, begin, end,
              [&](size_t bi, size_t bj) { walked.emplace_back(bi, bj); });
          const size_t clamped = std::min(end, tiles.size());
          ASSERT_EQ(walked.size(), clamped - begin)
              << "n=" << n << " block=" << block << " [" << begin << ", "
              << end << ")";
          size_t cells = 0;
          for (size_t t = begin; t < clamped; ++t) {
            EXPECT_EQ(walked[t - begin], tiles[t]);
            cells += TileCellCount(n, block, tiles[t].first, tiles[t].second);
          }
          auto counted = common::RangeCellCount(n, block, begin, end);
          ASSERT_TRUE(counted.ok());
          EXPECT_EQ(*counted, cells)
              << "n=" << n << " block=" << block << " [" << begin << ", "
              << end << ")";
        }
      }
    }
  }
  EXPECT_EQ(common::RangeCellCount(5, 0, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PlanShardsValidatesArguments) {
  EXPECT_EQ(PlanShards(10, 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanShards(10, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PlanShardsPartitionsAndBalances) {
  for (size_t n : {0u, 1u, 5u, 24u, 65u}) {
    for (size_t block : {1u, 4u, 16u}) {
      for (size_t k : {1u, 2u, 4u, 7u, 100u}) {
        auto plan = PlanShards(n, block, k);
        ASSERT_TRUE(plan.ok()) << plan.status();
        EXPECT_EQ(plan->n, n);
        EXPECT_EQ(plan->block, block);
        EXPECT_EQ(plan->tile_count, TileCount(n, block));
        ASSERT_EQ(plan->shard_count(), k);

        // Contiguous, disjoint, covering — in shard order.
        size_t expect = 0;
        for (const TileRange& range : plan->ranges) {
          EXPECT_EQ(range.begin, expect);
          EXPECT_LE(range.begin, range.end);
          expect = range.end;
        }
        EXPECT_EQ(expect, plan->tile_count);

        // Balanced by cells: no shard exceeds an even split by more than
        // the largest single tile (tiles are indivisible).
        const auto tiles = TileSchedule(n, block);
        size_t total = 0, largest = 0;
        std::vector<size_t> cells(tiles.size());
        for (size_t t = 0; t < tiles.size(); ++t) {
          cells[t] = TileCellCount(n, block, tiles[t].first, tiles[t].second);
          total += cells[t];
          largest = std::max(largest, cells[t]);
        }
        for (const TileRange& range : plan->ranges) {
          size_t shard_cells = 0;
          for (size_t t = range.begin; t < range.end; ++t) {
            shard_cells += cells[t];
          }
          EXPECT_LE(shard_cells, total / k + largest + 1)
              << "n=" << n << " block=" << block << " k=" << k;
        }

        // Deterministic: re-deriving the plan gives identical cuts.
        auto again = PlanShards(n, block, k);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again->ranges, plan->ranges);
      }
    }
  }
}

// -- Round-trip bit-identity --------------------------------------------------

TEST_F(ShardTest, ShardedBuildIsBitIdenticalForAllMeasures) {
  workload::Scenario s = Shop(61, 21);
  distance::MeasureContext context = s.Context();
  MeasureRegistry registry = MeasureRegistry::WithBuiltins();
  common::ThreadPool pool(2);

  for (const std::string& name : registry.Names()) {
    auto reference_measure = registry.Create(name);
    ASSERT_TRUE(reference_measure.ok());
    MatrixBuilder builder(&pool, MatrixBuilderOptions{4});
    auto reference = builder.Build(s.log, **reference_measure, context);
    ASSERT_TRUE(reference.ok()) << name << ": " << reference.status();

    for (size_t k : {1u, 2u, 4u}) {
      const std::string shard_dir =
          dir_ + "-" + name + "-" + std::to_string(k);
      fs::remove_all(shard_dir);
      auto plan = PlanShards(s.log.size(), 4, k);
      ASSERT_TRUE(plan.ok());

      // Each shard runs as its own "process": a private store handle and a
      // fresh measure instance (stateful measures must not share Prepare
      // state across workers).
      for (size_t shard = 0; shard < k; ++shard) {
        auto store = store::MatrixStore::Open(shard_dir);
        ASSERT_TRUE(store.ok()) << store.status();
        auto measure = registry.Create(name);
        ASSERT_TRUE(measure.ok());
        ShardWorker worker(&pool);
        auto manifest =
            worker.Run(name, s.log, **measure, context, *plan, shard, *store);
        ASSERT_TRUE(manifest.ok())
            << name << " shard " << shard << ": " << manifest.status();
        EXPECT_EQ(manifest->tile_begin, plan->ranges[shard].begin);
        EXPECT_EQ(manifest->tile_end, plan->ranges[shard].end);
      }

      auto measure = registry.Create(name);
      ASSERT_TRUE(measure.ok());
      auto merged =
          MergeShardDir(shard_dir, name, s.log, **measure, context, *plan);
      ASSERT_TRUE(merged.ok())
          << name << " k=" << k << ": " << merged.status();
      EXPECT_EQ(merged->merged_from_workers, k);
      ExpectBitIdentical(*reference, merged->matrix);
      fs::remove_all(shard_dir);
    }
  }
}

TEST_F(ShardTest, SparseShardFilesAreSmallerThanDense) {
  // The satellite claim: a k-shard build's files carry the owned cells, not
  // k copies of the zero-padded upper triangle, so the per-shard file is
  // roughly dense/k instead of dense-sized.
  workload::Scenario s = Shop(71, 24);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  constexpr size_t kShards = 4;
  auto plan = PlanShards(s.log.size(), 4, kShards);
  ASSERT_TRUE(plan.ok());
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ShardWorker worker(nullptr);
    auto manifest =
        worker.Run("token", s.log, token, context, *plan, shard, *store);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
  }
  const uintmax_t dense_payload = 24 * 23 / 2 * 8;  // a dense upper triangle
  uintmax_t total = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    const auto path = fs::path(dir_) / ("shard-token-" +
                                        std::to_string(shard) + "of" +
                                        std::to_string(kShards) + ".dpe");
    const uintmax_t size = fs::file_size(path);
    EXPECT_LT(size, dense_payload / 2) << "shard " << shard;
    total += size;
  }
  // All k files together stay in the ballpark of ONE dense payload.
  EXPECT_LT(total, 2 * dense_payload);
}

TEST_F(ShardTest, TinyLogsShardAndMerge) {
  // n = 0 and n = 1 have no pairs; the round-trip must still work (and the
  // n = 1 schedule still has one, empty, tile).
  distance::MeasureContext context;
  distance::TokenDistance token;
  for (size_t n : {0u, 1u}) {
    workload::Scenario s = Shop(77, std::max<size_t>(n, 1));
    std::vector<sql::SelectQuery> log(s.log.begin(), s.log.begin() + n);
    auto plan = PlanShards(n, 8, 2);
    ASSERT_TRUE(plan.ok());
    const std::string shard_dir = dir_ + "-n" + std::to_string(n);
    fs::remove_all(shard_dir);
    for (size_t shard = 0; shard < 2; ++shard) {
      auto store = store::MatrixStore::Open(shard_dir);
      ASSERT_TRUE(store.ok());
      ShardWorker worker(nullptr);
      auto manifest =
          worker.Run("token", log, token, context, *plan, shard, *store);
      ASSERT_TRUE(manifest.ok()) << manifest.status();
    }
    auto merged = MergeShardDir(shard_dir, "token", log, token, context, *plan);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->matrix.size(), n);
    fs::remove_all(shard_dir);
  }
}

// -- Failure modes -------------------------------------------------------------

TEST_F(ShardTest, WorkerRejectsForeignPlanAndBadIndex) {
  workload::Scenario s = Shop(101, 10);
  auto plan = PlanShards(12, 4, 2);  // plan for 12 queries, log holds 10
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ShardWorker worker(nullptr);
  distance::TokenDistance token;
  auto run = worker.Run("token", s.log, token, s.Context(), *plan, 0, *store);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  auto good_plan = PlanShards(10, 4, 2);
  ASSERT_TRUE(good_plan.ok());
  auto bad_index =
      worker.Run("token", s.log, token, s.Context(), *good_plan, 2, *store);
  ASSERT_FALSE(bad_index.ok());
  EXPECT_EQ(bad_index.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpe::engine
