// Engine-level compaction + self-healing load, end to end: CompactNow and
// the background trigger publish new snapshot generations while queries
// keep arriving, restarts from a compacted checkpoint are bit-identical to
// a never-compacted engine and replay zero work, and scrub_on_load turns a
// corrupt snapshot into a recompute instead of a dead checkpoint.
//
// Suite name matters: the TSan CI leg (scripts/check.sh) runs
// `CompactionTest.*` from this binary, so the interleaved-append test here
// doubles as the race detector for the append/fold/publish handoff.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "store/matrix_store.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::Shop;

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("compaction_engine_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(CompactionTest, CompactNowPublishesAndTheRestartReplaysNothing) {
  workload::Scenario s = Shop(61, 16);
  EngineOptions options;
  options.threads = 2;

  Engine engine(s.Context(), options);
  engine.SetLog({s.log.begin(), s.log.begin() + 12});
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  for (size_t i = 12; i < 16; ++i) {
    ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
  }
  auto reference = engine.BuildMatrix("token");  // journals rows 12..15
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(engine.checkpoint_generation(), 0u);

  auto compacted = engine.CompactNow();
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_TRUE(*compacted);
  EXPECT_EQ(engine.checkpoint_generation(), 1u);
  // The fold subsumed the journal: nothing left to replay on restart.
  auto store = store::MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(store.ok());
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->empty());

  Engine restored(s.Context(), options);
  CheckpointLoadReport report;
  ASSERT_TRUE(restored.LoadCheckpoint(dir_, &report).ok());
  EXPECT_EQ(report.queries_restored, 16u);
  EXPECT_EQ(report.journal_records_replayed, 0u);
  auto rebuilt = restored.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(restored.cache_stats().misses, 0u);  // zero recomputation
  ExpectBitIdentical(*reference, *rebuilt);
}

TEST_F(CompactionTest, BackgroundTriggerCompactsWhenTheJournalOutgrowsIt) {
  workload::Scenario s = Shop(67, 14);
  EngineOptions options;
  options.threads = 2;
  options.enable_compaction = true;
  options.compaction_trigger_bytes = 1;  // every journaled byte triggers

  Engine engine(s.Context(), options);
  engine.SetLog({s.log.begin(), s.log.begin() + 10});
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  for (size_t i = 10; i < 14; ++i) {
    ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
  }
  ASSERT_TRUE(engine.BuildMatrix("token").ok());

  // The cycle runs on the engine's pool; poll for the publish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.checkpoint_generation() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(engine.checkpoint_generation(), 1u)
      << "background compaction never published";
}

TEST_F(CompactionTest, InterleavedAppendsDuringCompactionStayBitIdentical) {
  // Appends and explicit compaction cycles race through the public API
  // while the background trigger fires too; the surviving checkpoint must
  // restart bit-identical to an engine that never compacted at all.
  workload::Scenario s = Shop(71, 18);
  EngineOptions options;
  options.threads = 2;
  options.enable_compaction = true;
  options.compaction_trigger_bytes = 1;

  {
    Engine engine(s.Context(), options);
    engine.SetLog({s.log.begin(), s.log.begin() + 8});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());

    std::atomic<bool> stop{false};
    std::thread compactor([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = engine.CompactNow();
        if (!result.ok()) break;  // engine shutting down
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (size_t i = 8; i < 18; ++i) {
      ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
      ASSERT_TRUE(engine.BuildMatrix("token").ok());
    }
    stop.store(true, std::memory_order_relaxed);
    compactor.join();
  }

  Engine restored(s.Context(), options);
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  EXPECT_EQ(restored.log_size(), 18u);
  auto rebuilt = restored.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(restored.cache_stats().misses, 0u);

  Engine cold(s.Context(), EngineOptions{.threads = 2});
  cold.SetLog(s.log);
  auto full = cold.BuildMatrix("token");
  ASSERT_TRUE(full.ok());
  ExpectBitIdentical(*full, *rebuilt);
}

TEST_F(CompactionTest, DestructionMidCompactionLeavesALoadableCheckpoint) {
  workload::Scenario s = Shop(73, 12);
  EngineOptions options;
  options.threads = 2;
  options.enable_compaction = true;
  options.compaction_trigger_bytes = 1;
  {
    Engine engine(s.Context(), options);
    engine.SetLog({s.log.begin(), s.log.begin() + 8});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    for (size_t i = 8; i < 12; ++i) {
      ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
    }
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    // Destructor runs with a compaction cycle (likely) still in flight: it
    // must stop the cycle cleanly, never hang, never tear the store.
  }
  Engine restored(s.Context(), options);
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  EXPECT_EQ(restored.log_size(), 12u);
  auto rebuilt = restored.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  Engine cold(s.Context(), EngineOptions{.threads = 2});
  cold.SetLog(s.log);
  auto full = cold.BuildMatrix("token");
  ASSERT_TRUE(full.ok());
  ExpectBitIdentical(*full, *rebuilt);
}

TEST_F(CompactionTest, ScrubOnLoadRecomputesQuarantinedCells) {
  workload::Scenario s = Shop(79, 12);
  EngineOptions options;
  options.threads = 2;
  auto reference = [&] {
    Engine engine(s.Context(), options);
    engine.SetLog(s.log);
    auto m = engine.BuildMatrix("token");
    EXPECT_TRUE(m.ok());
    EXPECT_TRUE(engine.SaveCheckpoint(dir_).ok());
    return std::move(m).value();
  }();

  // Flip a byte in the snapshot's chunk region (the tail of the file):
  // triangle rows are damaged, the query-log core stays intact.
  const fs::path path = fs::path(dir_) / "snapshot.0.dpe";
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 8u);
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x3c);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  // Strict load: typed failure, engine untouched.
  Engine strict(s.Context(), options);
  EXPECT_EQ(strict.LoadCheckpoint(dir_).code(), StatusCode::kParseError);

  // Self-healing load: scrub, retry, recompute what the quarantine cost.
  EngineOptions healing = options;
  healing.scrub_on_load = true;
  Engine engine(s.Context(), healing);
  CheckpointLoadReport report;
  ASSERT_TRUE(engine.LoadCheckpoint(dir_, &report).ok());
  EXPECT_TRUE(report.scrubbed);
  EXPECT_GT(report.cells_quarantined, 0u);
  EXPECT_GE(report.cells_recomputed, report.cells_quarantined);
  EXPECT_EQ(report.queries_restored, 12u);

  // The recomputed matrix is exactly the pre-corruption one — quarantine
  // plus recompute must never yield a wrong cell.
  auto rebuilt = engine.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  ExpectBitIdentical(reference, *rebuilt);

  // The scrub repaired the files on disk: a later strict load is clean.
  Engine after(s.Context(), options);
  CheckpointLoadReport clean;
  ASSERT_TRUE(after.LoadCheckpoint(dir_, &clean).ok());
  EXPECT_FALSE(clean.scrubbed);
}

}  // namespace
}  // namespace dpe::engine
