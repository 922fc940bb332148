// Seeded interleaving differential test for the per-measure distance
// triangles: each seed drives one engine through a random sequence of
// AddQuery, sync and async builds of two measures, coordinator-only shard
// drives, checkpoint saves, restarts (a fresh Engine plus LoadCheckpoint),
// compaction cycles and cache clears, under seed-chosen options (threads,
// tile edge, byte budget, background compaction). Every matrix any build or
// drive returns must be bit-identical to DistanceMatrix::Compute over the
// log at that moment — whatever mix of copied, journaled, folded, merged
// and recomputed rows produced it.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::Shop;

constexpr size_t kLogSize = 24;
constexpr size_t kInitial = 5;
constexpr size_t kSteps = 40;
const char* const kMeasures[] = {"token", "structure"};

class TriangleDifferentialTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("triangle_differential_" + std::to_string(GetParam())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    fs::remove_all(dir_ + "-drive");
  }

  std::string dir_;
};

TEST_P(TriangleDifferentialTest, EveryBuildMatchesTheSerialReference) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  auto chance = [&rng](int percent) {
    return std::uniform_int_distribution<int>(0, 99)(rng) < percent;
  };
  const workload::Scenario s = Shop(1000 + seed, kLogSize);

  EngineOptions options;
  options.threads = chance(50) ? 1 : 2;
  options.block = chance(50) ? 4 : 8;
  // About one measure's triangle at the full log: both measures fit early,
  // and later builds evict one of them.
  options.cache_max_bytes =
      chance(50) ? 0 : kLogSize * (kLogSize - 1) / 2 * sizeof(double);
  options.enable_compaction = chance(50);
  options.compaction_trigger_bytes = 1;
  SCOPED_TRACE("seed " + std::to_string(seed) + ": threads " +
               std::to_string(options.threads) + ", block " +
               std::to_string(options.block) + ", budget " +
               std::to_string(options.cache_max_bytes) + ", compaction " +
               (options.enable_compaction ? "on" : "off"));

  // Serial reference per (measure, log size), computed on first use.
  std::map<std::pair<std::string, size_t>, distance::DistanceMatrix> refs;
  auto reference = [&](const std::string& measure,
                       size_t n) -> const distance::DistanceMatrix& {
    auto [it, fresh] = refs.try_emplace({measure, n});
    if (fresh) {
      Engine scratch(s.Context());
      auto instance = scratch.registry().Create(measure);
      EXPECT_TRUE(instance.ok());
      const std::vector<sql::SelectQuery> prefix(s.log.begin(),
                                                 s.log.begin() + n);
      auto m = distance::DistanceMatrix::Compute(prefix, **instance,
                                                 s.Context());
      EXPECT_TRUE(m.ok()) << m.status();
      it->second = std::move(m).value();
    }
    return it->second;
  };

  size_t n = kInitial;
  bool saved = false;
  auto engine = std::make_unique<Engine>(s.Context(), options);
  engine->SetLog({s.log.begin(), s.log.begin() + n});

  for (size_t step = 0; step < kSteps; ++step) {
    const std::string measure = kMeasures[rng() % 2];
    const int op = std::uniform_int_distribution<int>(0, 109)(rng);
    SCOPED_TRACE("step " + std::to_string(step));
    if (op < 25) {
      if (n < kLogSize) {
        ASSERT_TRUE(engine->AddQuery(s.log[n]).ok());
        ++n;
      }
    } else if (op < 50) {
      auto built = engine->BuildMatrix(measure);
      ASSERT_TRUE(built.ok()) << built.status();
      ExpectBitIdentical(reference(measure, n), *built);
    } else if (op < 62) {
      // Two overlapping async builds, possibly of the same measure.
      const std::string other = kMeasures[rng() % 2];
      auto first = engine->BuildMatrixAsync(measure);
      auto second = engine->BuildMatrixAsync(other);
      auto a = first.get();
      auto b = second.get();
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ExpectBitIdentical(reference(measure, n), *a);
      ExpectBitIdentical(reference(other, n), *b);
    } else if (op < 72) {
      ASSERT_TRUE(engine->SaveCheckpoint(dir_).ok());
      saved = true;
    } else if (op < 82) {
      engine = std::make_unique<Engine>(s.Context(), options);
      if (saved) {
        Status loaded = engine->LoadCheckpoint(dir_);
        ASSERT_TRUE(loaded.ok()) << loaded;
        ASSERT_EQ(engine->log_size(), n);  // every AddQuery was journaled
      } else {
        engine->SetLog({s.log.begin(), s.log.begin() + n});
      }
    } else if (op < 91) {
      Result<bool> compacted = engine->CompactNow();
      if (!saved) {
        EXPECT_EQ(compacted.status().code(), StatusCode::kNotFound);
      } else if (!options.enable_compaction) {
        ASSERT_TRUE(compacted.ok()) << compacted.status();
      }
      // With background compaction on, an explicit cycle may race one that
      // already published and swept the inputs it folds; it then publishes
      // nothing, whatever it returns. The builds and restarts check state.
    } else if (op < 100) {
      engine->ClearCache();
    } else {
      // A coordinator-only drive of 1-3 shards over a fresh directory; its
      // merged rows warm the triangle and are journaled like a build's.
      const size_t shards = 1 + rng() % 3;
      const std::string shard_dir = dir_ + "-drive";
      fs::remove_all(shard_dir);
      MultiHostOptions drive_options;
      drive_options.claim_grace_ms = 0;
      auto driven = engine->DriveShards(measure, shards, shard_dir,
                                        drive_options);
      ASSERT_TRUE(driven.ok()) << driven.status();
      ExpectBitIdentical(reference(measure, n), driven->matrix);
      fs::remove_all(shard_dir);
    }
    if (options.cache_max_bytes != 0) {
      EXPECT_LE(engine->cache_bytes_used(), options.cache_max_bytes);
    }
  }

  // One last restart must still see the whole log and serve every measure
  // bit-identically.
  if (saved) {
    engine = std::make_unique<Engine>(s.Context(), options);
    Status loaded = engine->LoadCheckpoint(dir_);
    ASSERT_TRUE(loaded.ok()) << loaded;
    ASSERT_EQ(engine->log_size(), n);
  }
  for (const char* measure : kMeasures) {
    auto built = engine->BuildMatrix(measure);
    ASSERT_TRUE(built.ok()) << built.status();
    ExpectBitIdentical(reference(measure, n), *built);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleDifferentialTest,
                         ::testing::Range<uint32_t>(0, 20));

}  // namespace
}  // namespace dpe::engine
