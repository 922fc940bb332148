// Engine facade: batch mining API, distance-cache (per-measure triangle)
// correctness across incremental insertions, and agreement with the direct
// mining calls.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "distance/result_distance.h"
#include "distance/token_distance.h"
#include "sql/parser.h"
#include "tests/json_test_util.h"
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

// A result build prepares its tuple sets from the database as it is at
// build time, and keeps none of them: after rows are appended, a rebuild of
// the same log must match the per-pair reference on the grown table.
TEST(EngineTest, ResultRebuildSeesTheDatabaseItIsGiven) {
  db::Database database;
  db::Table t("t", db::TableSchema({{"id", db::ColumnType::kInt}}));
  for (int id = 1; id <= 10; ++id) {
    ASSERT_TRUE(t.Append({db::Value::Int(id)}).ok());
  }
  ASSERT_TRUE(database.CreateTable(std::move(t)).ok());
  distance::MeasureContext context;
  context.database = &database;
  const std::vector<sql::SelectQuery> log = {
      sql::Parse("SELECT id FROM t WHERE id <= 5").value(),
      sql::Parse("SELECT id FROM t WHERE id >= 3").value(),
      sql::Parse("SELECT id FROM t WHERE id > 8").value()};
  Engine engine(context, {.threads = 2});
  engine.SetLog(log);
  ASSERT_TRUE(engine.BuildMatrix("result").ok());

  db::Table* table = database.GetMutableTable("t").value();
  for (int id = 11; id <= 20; ++id) {
    ASSERT_TRUE(table->Append({db::Value::Int(id)}).ok());
  }
  engine.SetLog(log);
  auto rebuilt = engine.BuildMatrix("result");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  distance::ResultDistance reference;
  for (size_t i = 0; i < log.size(); ++i) {
    for (size_t j = 0; j < log.size(); ++j) {
      EXPECT_EQ(rebuilt->at(i, j),
                reference.Distance(log[i], log[j], context).value())
          << "cell (" << i << ", " << j << ")";
    }
  }
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

TEST(EngineTest, BuildsRacingClearCacheStayBitIdentical) {
  // Builds of one measure on this thread extend its triangle while another
  // thread keeps dropping it: every result must still be bit-identical, and
  // the triangle never holds a gap. Under TSan this is the race detector
  // for the triangle map.
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
  for (int round = 0; round < 16; ++round) {
    auto built = engine.BuildMatrix("token");
    ASSERT_TRUE(built.ok()) << built.status();
    ExpectBitIdentical(*serial, *built);
  }
  stop.store(true, std::memory_order_relaxed);
  clearer.join();

  auto warm = engine.BuildMatrix("token");
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*serial, *warm);
  EXPECT_EQ(engine.cache_size(), 20u * 19 / 2);
}

TEST(EngineTest, AnyThreadReadsRacingLogMutations) {
  // The telemetry threads read the engine while the caller replaces and
  // grows the log. Under TSan this is the race detector for the log size
  // that log_size(), Stats() and HealthzJson() report; the other readers
  // of the threading contract ride along.
  workload::Scenario s = Shop(29, 64);
  Engine engine(s.Context(), {.threads = 2});
  std::atomic<bool> stop{false}, reading{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(engine.log_size(), 64u);
      EXPECT_NE(engine.HealthzJson().find("\"status\":\"ok\""),
                std::string::npos);
      EXPECT_FALSE(engine.Stats().info.empty());
      EXPECT_FALSE(engine.MetricsText().empty());
      engine.cache_stats();
      engine.cache_size();
      engine.cache_bytes_used();
      engine.checkpoint_attached();
      engine.checkpoint_generation();
      engine.last_build_report();
      engine.trace().ToChromeJson();
      reading.store(true, std::memory_order_relaxed);
    }
  });
  while (!reading.load(std::memory_order_relaxed)) std::this_thread::yield();
  for (int round = 0; round < 20; ++round) {
    engine.SetLog({});
    for (const sql::SelectQuery& q : s.log) {
      EXPECT_TRUE(engine.AddQuery(q).ok());
    }
    if (round % 5 == 0) {
      EXPECT_TRUE(engine.BuildMatrix("token").ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(engine.log_size(), 64u);
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

TEST(EngineTest, HealthzJsonQuotesTheMeasureName) {
  // Register accepts any non-empty name; /healthz must still be JSON.
  workload::Scenario s = Shop(5, 8);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.registry()
                  .Register("we\"ird\\name",
                            [] {
                              return std::make_unique<
                                  distance::TokenDistance>();
                            })
                  .ok());
  ASSERT_TRUE(engine.BuildMatrix("we\"ird\\name").ok());
  const std::string json = engine.HealthzJson();
  EXPECT_NE(json.find("\"measure\":\"we\\\"ird\\\\name\""),
            std::string::npos)
      << json;
  EXPECT_TRUE(testutil::JsonIsBalanced(json)) << json;
  EXPECT_TRUE(testutil::JsonIsBalanced(engine.Stats().ToJson()));
}

}  // namespace
}  // namespace dpe::engine
