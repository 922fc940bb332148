// Kernel-dispatch property tests at the measure/engine level: for every
// backend compiled+runnable on this CPU, a full matrix build under every
// built-in measure — forced onto that backend via the MeasureContext
// override — is bit-identical to the scalar-forced build. The log includes
// duplicate queries (identical feature sets, distance exactly 0) and very
// short next to very long queries, so the kernels see the degenerate pair
// shapes, not just average ones; the kernel-level adversarial inputs
// (empty/disjoint/straddling-width) live in tests/common/simd_test.cc.
//
// Also covers the loud-failure contract (a forced backend the CPU cannot
// run fails the build with InvalidArgument) and the engine-level knob
// (EngineOptions::kernel_backend).

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.h"
#include "distance/token_distance.h"
#include "engine/engine.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

using common::simd::BackendName;
using common::simd::KernelBackend;
using common::simd::RunnableBackends;
using testutil::ExpectBitIdentical;
using testutil::Shop;

/// A log with adversarial pair shapes: scenario queries plus exact
/// duplicates, so the kernels see identical-set pairs (distance exactly 0,
/// full-overlap intersections) alongside the organic short-vs-long ones.
std::vector<sql::SelectQuery> AdversarialLog() {
  workload::Scenario s = Shop(2026, 18);
  std::vector<sql::SelectQuery> log = s.log;
  log.push_back(log[0]);  // duplicate: identical sets, distance 0
  log.push_back(log[7]);
  return log;
}

TEST(KernelDispatchTest, AllMeasuresBitIdenticalAcrossBackends) {
  workload::Scenario s = Shop(2026, 18);
  std::vector<sql::SelectQuery> log = AdversarialLog();
  MeasureRegistry registry = MeasureRegistry::WithBuiltins();

  for (const std::string& name : registry.Names()) {
    // Scalar-forced reference build.
    distance::MeasureContext scalar_ctx = s.Context();
    scalar_ctx.kernel_backend = KernelBackend::kScalar;
    auto measure = registry.Create(name);
    ASSERT_TRUE(measure.ok());
    MatrixBuilder builder(nullptr, MatrixBuilderOptions{4});
    auto reference = builder.Build(log, **measure, scalar_ctx);
    ASSERT_TRUE(reference.ok()) << name << ": " << reference.status();

    for (KernelBackend backend : RunnableBackends()) {
      distance::MeasureContext ctx = s.Context();
      ctx.kernel_backend = backend;
      auto built = builder.Build(log, **measure, ctx);
      ASSERT_TRUE(built.ok())
          << name << " on " << BackendName(backend) << ": " << built.status();
      ExpectBitIdentical(*reference, *built);
    }
  }
}

TEST(KernelDispatchTest, EngineOptionForcesBackendBitIdentically) {
  workload::Scenario s = Shop(31, 12);
  EngineOptions scalar_options;
  scalar_options.kernel_backend = KernelBackend::kScalar;
  Engine scalar_engine(s.Context(), scalar_options);
  scalar_engine.SetLog(s.log);
  auto reference = scalar_engine.BuildMatrix("token");
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (KernelBackend backend : RunnableBackends()) {
    EngineOptions options;
    options.kernel_backend = backend;
    Engine engine(s.Context(), options);
    engine.SetLog(s.log);
    for (const char* measure : {"token", "levenshtein-token"}) {
      auto built = engine.BuildMatrix(measure);
      ASSERT_TRUE(built.ok())
          << measure << " on " << BackendName(backend) << ": "
          << built.status();
    }
    auto token = engine.BuildMatrix("token");
    ASSERT_TRUE(token.ok());
    ExpectBitIdentical(*reference, *token);
  }
}

TEST(KernelDispatchTest, DefaultEngineOptionsPreserveContextForcedBackend) {
  // A backend forced on the MeasureContext must survive Engine construction
  // with default options (kAuto means "no engine-level opinion", not
  // "reset to auto").
  workload::Scenario s = Shop(17, 8);
  distance::MeasureContext ctx = s.Context();
  ctx.kernel_backend = KernelBackend::kScalar;
  Engine engine(ctx);  // default EngineOptions
  engine.SetLog(s.log);
  auto built = engine.BuildMatrix("token");
  ASSERT_TRUE(built.ok()) << built.status();

  // And an explicit engine option still wins over the context.
  EngineOptions options;
  options.kernel_backend = RunnableBackends().back();
  Engine overridden(ctx, options);
  overridden.SetLog(s.log);
  auto built2 = overridden.BuildMatrix("token");
  ASSERT_TRUE(built2.ok()) << built2.status();
  ExpectBitIdentical(*built, *built2);
}

TEST(KernelDispatchTest, UnrunnableForcedBackendFailsTheBuildLoudly) {
  // Only meaningful where AVX2 is NOT runnable (a scalar-only build, or
  // non-AVX2 hardware); on a machine that runs it the test trivially passes.
  if (common::simd::BackendIsRunnable(KernelBackend::kAvx2)) return;
  workload::Scenario s = Shop(5, 6);
  EngineOptions options;
  options.kernel_backend = KernelBackend::kAvx2;
  Engine engine(s.Context(), options);
  engine.SetLog(s.log);
  auto built = engine.BuildMatrix("token");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(KernelDispatchTest, ShardedBuildsHonorTheForcedBackend) {
  // The shard worker path flows the context's backend through ComputeRows;
  // merged output must match the scalar direct build bit for bit.
  workload::Scenario s = Shop(91, 13);
  distance::MeasureContext scalar_ctx = s.Context();
  scalar_ctx.kernel_backend = KernelBackend::kScalar;
  distance::TokenDistance token;
  MatrixBuilder builder(nullptr, MatrixBuilderOptions{4});
  auto reference = builder.Build(s.log, token, scalar_ctx);
  ASSERT_TRUE(reference.ok());

  for (KernelBackend backend : RunnableBackends()) {
    distance::MeasureContext ctx = s.Context();
    ctx.kernel_backend = backend;
    auto plan = PlanShards(s.log.size(), 2);
    ASSERT_TRUE(plan.ok());
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         ("kernel_dispatch_shards_" + std::string(BackendName(backend))))
            .string();
    std::filesystem::remove_all(dir);
    for (size_t shard = 0; shard < 2; ++shard) {
      auto store = store::MatrixStore::Open(dir);
      ASSERT_TRUE(store.ok());
      ShardWorker worker(nullptr);
      auto manifest =
          worker.Run("token", s.log, token, ctx, *plan, shard, *store);
      ASSERT_TRUE(manifest.ok()) << manifest.status();
    }
    auto merged =
        testutil::MergeShardDir(dir, "token", s.log, token, ctx, *plan);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->merged_from_workers, 2u);
    ExpectBitIdentical(*reference, merged->matrix);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace dpe::engine
