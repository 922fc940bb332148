// Engine facade: batch mining API, distance-cache (per-measure triangle)
// correctness across incremental insertions, and agreement with the direct
// mining calls.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "distance/token_distance.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

using testutil::ExpectBitIdentical;
using testutil::Shop;

TEST(EngineTest, BuildMatrixMatchesSerialReference) {
  workload::Scenario s = Shop(42, 30);
  Engine engine(s.Context(), {.threads = 4, .block = 8});
  engine.SetLog(s.log);

  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());
  auto built = engine.BuildMatrix("token");
  ASSERT_TRUE(built.ok()) << built.status();
  ExpectBitIdentical(*serial, *built);
}

TEST(EngineTest, UnknownMeasureIsNotFound) {
  workload::Scenario s = Shop(1, 5);
  Engine engine(s.Context());
  engine.SetLog(s.log);
  EXPECT_EQ(engine.BuildMatrix("bogus").status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, SecondBuildIsServedFromCache) {
  workload::Scenario s = Shop(9, 20);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);

  auto first = engine.BuildMatrix("token");
  ASSERT_TRUE(first.ok());
  const size_t pairs = 20 * 19 / 2;
  EXPECT_EQ(engine.cache_stats().misses, pairs);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_size(), pairs);

  auto second = engine.BuildMatrix("token");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.cache_stats().hits, pairs);
  EXPECT_EQ(engine.cache_stats().misses, pairs);  // no new misses
  ExpectBitIdentical(*first, *second);
}

TEST(EngineTest, CacheHitCorrectnessAfterPointInsertion) {
  workload::Scenario s = Shop(17, 24);
  const size_t initial = 18;

  Engine engine(s.Context(), {.threads = 4, .block = 8});
  engine.SetLog({s.log.begin(), s.log.begin() + initial});
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  const size_t initial_pairs = initial * (initial - 1) / 2;
  EXPECT_EQ(engine.cache_size(), initial_pairs);

  // Incremental: append the remaining queries one by one.
  for (size_t i = initial; i < s.log.size(); ++i) {
    ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
  }
  auto incremental = engine.BuildMatrix("token");
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  // Every previously cached pair must be served as a hit...
  EXPECT_EQ(engine.cache_stats().hits, initial_pairs);
  const size_t total_pairs = s.log.size() * (s.log.size() - 1) / 2;
  EXPECT_EQ(engine.cache_size(), total_pairs);

  // ...and the result must still be bit-identical to a from-scratch serial
  // computation over the full log.
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());
  ExpectBitIdentical(*serial, *incremental);
}

TEST(EngineTest, CacheIsPerMeasure) {
  workload::Scenario s = Shop(31, 10);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  ASSERT_TRUE(engine.BuildMatrix("structure").ok());
  EXPECT_EQ(engine.cache_size(), 2 * (10 * 9 / 2));
}

TEST(EngineTest, SetLogInvalidatesCache) {
  workload::Scenario s = Shop(13, 8);
  Engine engine(s.Context());
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  EXPECT_GT(engine.cache_size(), 0u);
  engine.SetLog(s.log);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(EngineTest, DisabledCacheStillBuildsCorrectly) {
  workload::Scenario s = Shop(5, 15);
  Engine engine(s.Context(), {.threads = 2, .enable_cache = false});
  engine.SetLog(s.log);
  auto built = engine.BuildMatrix("token");
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(engine.cache_size(), 0u);
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());
  ExpectBitIdentical(*serial, *built);
}

TEST(EngineTest, BatchMiningMatchesDirectCalls) {
  workload::Scenario s = Shop(77, 26);
  Engine engine(s.Context(), {.threads = 4});
  engine.SetLog(s.log);

  distance::TokenDistance token;
  auto matrix = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(matrix.ok());

  mining::KMedoidsOptions kopt;
  kopt.k = 3;
  auto km_direct = mining::KMedoids(*matrix, kopt);
  auto km_engine = engine.RunKMedoids("token", kopt);
  ASSERT_TRUE(km_direct.ok());
  ASSERT_TRUE(km_engine.ok()) << km_engine.status();
  EXPECT_EQ(km_direct->labels, km_engine->labels);
  EXPECT_EQ(km_direct->medoids, km_engine->medoids);

  mining::DbscanOptions dopt;
  dopt.epsilon = 0.4;
  dopt.min_points = 3;
  auto db_direct = mining::Dbscan(*matrix, dopt);
  auto db_engine = engine.RunDbscan("token", dopt);
  ASSERT_TRUE(db_direct.ok());
  ASSERT_TRUE(db_engine.ok());
  EXPECT_EQ(db_direct->labels, db_engine->labels);

  auto hc_direct = mining::CompleteLink(*matrix);
  auto hc_engine = engine.RunHierarchical("token");
  ASSERT_TRUE(hc_direct.ok());
  ASSERT_TRUE(hc_engine.ok());
  ASSERT_EQ(hc_direct->merges.size(), hc_engine->merges.size());
  for (size_t i = 0; i < hc_direct->merges.size(); ++i) {
    EXPECT_EQ(hc_direct->merges[i].left, hc_engine->merges[i].left);
    EXPECT_EQ(hc_direct->merges[i].right, hc_engine->merges[i].right);
    EXPECT_EQ(hc_direct->merges[i].distance, hc_engine->merges[i].distance);
  }

  mining::OutlierOptions oopt;
  oopt.p = 0.9;
  oopt.d = 0.8;
  auto out_direct = mining::DistanceBasedOutliers(*matrix, oopt);
  auto out_engine = engine.RunOutlierKnn("token", oopt, 3);
  ASSERT_TRUE(out_direct.ok());
  ASSERT_TRUE(out_engine.ok());
  EXPECT_EQ(out_direct->outliers, out_engine->outliers.outliers);
  ASSERT_EQ(out_engine->neighbors.size(), out_engine->outliers.outliers.size());
  for (size_t r = 0; r < out_engine->neighbors.size(); ++r) {
    auto nn =
        mining::NearestNeighbors(*matrix, out_engine->outliers.outliers[r], 3);
    ASSERT_TRUE(nn.ok());
    EXPECT_EQ(out_engine->neighbors[r], *nn);
  }
}

TEST(EngineTest, AsyncBuildMatchesSerialReference) {
  workload::Scenario s = Shop(21, 20);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);

  auto future = engine.BuildMatrixAsync("token");
  auto built = future.get();
  ASSERT_TRUE(built.ok()) << built.status();

  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());
  ExpectBitIdentical(*serial, *built);

  // The async build shares the cache: a following sync build is all hits.
  auto second = engine.BuildMatrix("token");
  ASSERT_TRUE(second.ok());
  const size_t pairs = 20 * 19 / 2;
  EXPECT_EQ(engine.cache_stats().hits, pairs);
  ExpectBitIdentical(*serial, *second);
}

TEST(EngineTest, AsyncBuildsOverlapAcrossMeasures) {
  workload::Scenario s = Shop(23, 24);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);

  // Two in-flight builds at once; neither blocks the caller.
  auto token_future = engine.BuildMatrixAsync("token");
  auto structure_future = engine.BuildMatrixAsync("structure");
  auto token = token_future.get();
  auto structure = structure_future.get();
  ASSERT_TRUE(token.ok()) << token.status();
  ASSERT_TRUE(structure.ok()) << structure.status();

  distance::TokenDistance token_measure;
  auto token_serial =
      distance::DistanceMatrix::Compute(s.log, token_measure, s.Context());
  ASSERT_TRUE(token_serial.ok());
  ExpectBitIdentical(*token_serial, *token);

  auto structure_sync = engine.BuildMatrix("structure");
  ASSERT_TRUE(structure_sync.ok());
  ExpectBitIdentical(*structure_sync, *structure);
}

TEST(EngineTest, DestructorDrainsInFlightAsyncBuilds) {
  workload::Scenario s = Shop(27, 18);
  // The future is deliberately dropped without get(): the engine's
  // destructor must block until the task is done, or the task would touch
  // destroyed members (caught by the ASan run of this suite).
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  engine.BuildMatrixAsync("token");
  engine.BuildMatrixAsync("structure");
}

TEST(EngineTest, AsyncBuildOfUnknownMeasureFailsFast) {
  workload::Scenario s = Shop(2, 5);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  auto future = engine.BuildMatrixAsync("bogus");
  EXPECT_EQ(future.get().status().code(), StatusCode::kNotFound);
}

TEST(EngineTest, AsyncBuildsRacingClearCacheStayBitIdentical) {
  // Two async builds of one measure share its triangle while another thread
  // keeps dropping it: every result must still be bit-identical, and the
  // triangle never holds a gap. Under TSan this is the race detector for
  // the shared triangle map.
  workload::Scenario s = Shop(25, 20);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());

  std::atomic<bool> stop{false};
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.ClearCache();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 8; ++round) {
    auto first = engine.BuildMatrixAsync("token");
    auto second = engine.BuildMatrixAsync("token");
    auto a = first.get();
    auto b = second.get();
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ExpectBitIdentical(*serial, *a);
    ExpectBitIdentical(*serial, *b);
  }
  stop.store(true, std::memory_order_relaxed);
  clearer.join();

  auto warm = engine.BuildMatrix("token");
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*serial, *warm);
  EXPECT_EQ(engine.cache_size(), 20u * 19 / 2);
}

TEST(EngineTest, CacheByteBudgetIsEnforcedDuringBuilds) {
  workload::Scenario s = Shop(11, 16);
  const size_t budget = 40 * sizeof(double);  // < 120 cells
  Engine engine(s.Context(), {.threads = 2, .cache_max_bytes = budget});
  engine.SetLog(s.log);

  // A measure larger than the budget on its own is returned, not kept.
  auto built = engine.BuildMatrix("token");
  ASSERT_TRUE(built.ok());
  EXPECT_LE(engine.cache_bytes_used(), budget);
  EXPECT_EQ(engine.cache_stats().evictions, 16u * 15 / 2);

  // Evicted pairs recompute on demand — the result stays bit-identical.
  distance::TokenDistance token;
  auto serial = distance::DistanceMatrix::Compute(s.log, token, s.Context());
  ASSERT_TRUE(serial.ok());
  auto rebuilt = engine.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_LE(engine.cache_bytes_used(), budget);
  ExpectBitIdentical(*serial, *rebuilt);
}

TEST(EngineTest, CacheByteBudgetEvictsTheLeastRecentlyBuiltMeasure) {
  workload::Scenario s = Shop(15, 12);
  const size_t one_measure = 12 * 11 / 2 * sizeof(double);
  Engine engine(s.Context(),
                {.threads = 2, .cache_max_bytes = 2 * one_measure});
  engine.SetLog(s.log);

  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  ASSERT_TRUE(engine.BuildMatrix("structure").ok());
  EXPECT_EQ(engine.cache_bytes_used(), 2 * one_measure);
  // A warm build of "token" makes "structure" the least recently built.
  BuildReport warm;
  ASSERT_TRUE(engine.BuildMatrix("token", &warm).ok());
  EXPECT_EQ(warm.cells_computed, 0u);
  ASSERT_TRUE(engine.BuildMatrix("levenshtein-token").ok());
  EXPECT_EQ(engine.cache_bytes_used(), 2 * one_measure);
  EXPECT_EQ(engine.cache_stats().evictions, 12u * 11 / 2);

  BuildReport token, structure;
  ASSERT_TRUE(engine.BuildMatrix("token", &token).ok());
  EXPECT_EQ(token.cells_computed, 0u);  // kept
  ASSERT_TRUE(engine.BuildMatrix("structure", &structure).ok());
  EXPECT_EQ(structure.cells_computed, 12u * 11 / 2);  // evicted, recomputed
}

TEST(EngineTest, RegistryAcceptsCustomMeasure) {
  workload::Scenario s = Shop(3, 12);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.registry()
                  .Register("my-token",
                            [] {
                              return std::make_unique<
                                  distance::TokenDistance>();
                            })
                  .ok());
  auto mine = engine.BuildMatrix("my-token");
  auto builtin = engine.BuildMatrix("token");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(builtin.ok());
  ExpectBitIdentical(*mine, *builtin);
}

}  // namespace
}  // namespace dpe::engine
