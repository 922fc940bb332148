// Sharded matrix builds: the plan partitions rows [0, n) deterministically,
// shard files carry exactly their rows, and a k-shard build round-tripped
// through on-disk shard files merges bit-identical to MatrixBuilder::Build
// for every built-in measure. Torn, doctored and foreign shard files are
// the shard driver's to discard and recompute
// (tests/engine/driver_test.cc).

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

// -- Plan properties ----------------------------------------------------------

TEST_F(ShardTest, PlanShardsValidatesArguments) {
  EXPECT_EQ(PlanShards(10, 0).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PlanShardsPartitionsAndBalances) {
  for (size_t n : {0u, 1u, 2u, 5u, 24u, 65u, 1024u}) {
    for (size_t k : {1u, 2u, 3u, 4u, 7u, 100u}) {
      auto plan = PlanShards(n, k);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(plan->n, n);
      ASSERT_EQ(plan->shard_count(), k);

      // Contiguous, disjoint, covering — in shard order.
      size_t expect = 0;
      for (const RowRange& range : plan->ranges) {
        EXPECT_EQ(range.begin, expect);
        EXPECT_LE(range.begin, range.end);
        expect = range.end;
      }
      EXPECT_EQ(expect, n);

      // Balanced by cells: no range is more than one row (n - 1 cells) away
      // from an even split.
      const size_t total = distance::DistanceTriangle::CellCount(n);
      for (const RowRange& range : plan->ranges) {
        const size_t cells = distance::DistanceTriangle::CellCount(range.end) -
                             distance::DistanceTriangle::CellCount(range.begin);
        EXPECT_LE(cells * k, total + (n > 0 ? n - 1 : 0) * k)
            << "n=" << n << " k=" << k;
        EXPECT_GE(cells * k + (n > 0 ? n - 1 : 0) * k, total)
            << "n=" << n << " k=" << k;
      }

      // Deterministic: re-deriving the plan gives identical cuts.
      auto again = PlanShards(n, k);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->ranges, plan->ranges);
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
      auto plan = PlanShards(s.log.size(), k);
      ASSERT_TRUE(plan.ok());

      // Each shard runs as its own "process": a private store handle and
      // its own measure instance. Its file carries exactly its rows' cells.
      size_t cells = 0;
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
        const RowRange& range = plan->ranges[shard];
        EXPECT_EQ(manifest->row_begin, range.begin);
        EXPECT_EQ(manifest->row_end, range.end);
        auto read = store->ReadShard(name, static_cast<uint32_t>(shard),
                                     static_cast<uint32_t>(k));
        ASSERT_TRUE(read.ok()) << read.status();
        EXPECT_EQ(read->cells.size(),
                  distance::DistanceTriangle::CellCount(range.end) -
                      distance::DistanceTriangle::CellCount(range.begin));
        cells += read->cells.size();
      }
      EXPECT_EQ(cells, s.log.size() * (s.log.size() - 1) / 2);

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
  // A k-shard build's files carry their rows' cells, not k copies of the
  // zero-padded triangle, so the per-shard file is roughly dense/k instead
  // of dense-sized.
  workload::Scenario s = Shop(71, 24);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  constexpr size_t kShards = 4;
  auto plan = PlanShards(s.log.size(), kShards);
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
  // n = 0 and n = 1 have no pairs; the round-trip must still work (and
  // with n = 1 one of the two ranges is empty).
  distance::MeasureContext context;
  distance::TokenDistance token;
  for (size_t n : {0u, 1u}) {
    workload::Scenario s = Shop(77, std::max<size_t>(n, 1));
    std::vector<sql::SelectQuery> log(s.log.begin(), s.log.begin() + n);
    auto plan = PlanShards(n, 2);
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
  auto plan = PlanShards(12, 2);  // plan for 12 queries, log holds 10
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ShardWorker worker(nullptr);
  distance::TokenDistance token;
  auto run = worker.Run("token", s.log, token, s.Context(), *plan, 0, *store);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  auto good_plan = PlanShards(10, 2);
  ASSERT_TRUE(good_plan.ok());
  auto bad_index =
      worker.Run("token", s.log, token, s.Context(), *good_plan, 2, *store);
  ASSERT_FALSE(bad_index.ok());
  EXPECT_EQ(bad_index.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpe::engine
