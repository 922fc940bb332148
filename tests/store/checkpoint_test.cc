// End-to-end kill/restart round-trip (the acceptance criterion of the
// persistent store): build a matrix for N logs, SaveCheckpoint, reload in a
// fresh Engine, append M new logs, and the incrementally-completed matrix
// must be bit-identical to a cold build over N+M logs — while the journal
// shows only the new rows were computed and the triangles never exceed
// their byte budget. A second restart then replays the journal and rebuilds
// with zero recomputation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "engine/engine.h"
#include "sql/printer.h"
#include "store/matrix_store.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::Shop;

constexpr size_t kInitial = 18;  // N
constexpr size_t kAppended = 6;  // M
constexpr size_t kTotal = kInitial + kAppended;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("checkpoint_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(CheckpointTest, KillRestartRoundTripIsBitIdenticalAndIncremental) {
  workload::Scenario s = Shop(42, kTotal);
  // Budget with finite headroom: holds every cell of the full log, but is a
  // real bound that the test checks is never exceeded.
  EngineOptions options;
  options.threads = 2;
  options.block = 8;
  options.cache_max_bytes = 3 * (kTotal * (kTotal - 1) / 2) * sizeof(double);

  // --- Session 1: build over N queries, checkpoint, "die". ---
  {
    Engine engine(s.Context(), options);
    engine.SetLog({s.log.begin(), s.log.begin() + kInitial});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_FALSE(engine.checkpoint_attached());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    ASSERT_TRUE(engine.checkpoint_attached());
    EXPECT_LE(engine.cache_bytes_used(), options.cache_max_bytes);
  }

  // --- Session 2: fresh engine, restore, append M, rebuild. ---
  Engine engine2(s.Context(), options);
  ASSERT_TRUE(engine2.LoadCheckpoint(dir_).ok());
  EXPECT_EQ(engine2.log_size(), kInitial);
  EXPECT_EQ(engine2.cache_size(), kInitial * (kInitial - 1) / 2);

  for (size_t i = kInitial; i < kTotal; ++i) {
    ASSERT_TRUE(engine2.AddQuery(s.log[i]).ok());
  }
  auto incremental = engine2.BuildMatrix("token");
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  EXPECT_LE(engine2.cache_bytes_used(), options.cache_max_bytes);

  // Every pre-checkpoint pair was served from the restored cache...
  EXPECT_EQ(engine2.cache_stats().hits, kInitial * (kInitial - 1) / 2);

  // ...and the result is bit-identical to a cold build over all N+M logs.
  Engine cold(s.Context(), options);
  cold.SetLog(s.log);
  auto full = cold.BuildMatrix("token");
  ASSERT_TRUE(full.ok());
  ExpectBitIdentical(*full, *incremental);

  // The journal records the appended queries and ONLY the new rows.
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok()) << journal.status();
  size_t query_records = 0, row_records = 0;
  for (const store::JournalRecord& record : *journal) {
    if (record.kind == store::JournalRecord::Kind::kQueryAppended) {
      EXPECT_GE(record.index, kInitial);
      EXPECT_LT(record.index, kTotal);
      ++query_records;
    } else {
      EXPECT_GE(record.row, kInitial) << "old row was recomputed";
      EXPECT_LT(record.row, kTotal);
      ++row_records;
    }
  }
  EXPECT_EQ(query_records, kAppended);
  EXPECT_EQ(row_records, kAppended);  // one record per new row

  // --- Session 3: another kill/restart; the journal replays, nothing is
  // recomputed, and the matrix is still bit-identical. ---
  Engine engine3(s.Context(), options);
  ASSERT_TRUE(engine3.LoadCheckpoint(dir_).ok());
  EXPECT_EQ(engine3.log_size(), kTotal);
  EXPECT_EQ(engine3.cache_size(), kTotal * (kTotal - 1) / 2);
  auto replayed = engine3.BuildMatrix("token");
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(engine3.cache_stats().misses, 0u);  // zero recomputation
  ExpectBitIdentical(*full, *replayed);
  EXPECT_LE(engine3.cache_bytes_used(), options.cache_max_bytes);
}

TEST_F(CheckpointTest, MultiMeasureCheckpointRestoresBoth) {
  workload::Scenario s = Shop(9, 12);
  Engine engine(s.Context(), {.threads = 2});
  engine.SetLog(s.log);
  auto token = engine.BuildMatrix("token");
  auto structure = engine.BuildMatrix("structure");
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(structure.ok());
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());

  Engine restored(s.Context(), {.threads = 2});
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  auto token2 = restored.BuildMatrix("token");
  auto structure2 = restored.BuildMatrix("structure");
  ASSERT_TRUE(token2.ok());
  ASSERT_TRUE(structure2.ok());
  EXPECT_EQ(restored.cache_stats().misses, 0u);
  ExpectBitIdentical(*token, *token2);
  ExpectBitIdentical(*structure, *structure2);
}

TEST_F(CheckpointTest, RestoredLogRoundTripsThroughSqlText) {
  workload::Scenario s = Shop(17, 10);
  Engine engine(s.Context());
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());

  Engine restored(s.Context());
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  ASSERT_EQ(restored.log_size(), s.log.size());
  for (size_t i = 0; i < s.log.size(); ++i) {
    EXPECT_EQ(sql::ToSql(restored.log()[i]), sql::ToSql(s.log[i]));
  }
}

TEST_F(CheckpointTest, LoadFromMissingDirectoryIsNotFoundAndCreatesNothing) {
  workload::Scenario s = Shop(1, 4);
  Engine engine(s.Context());
  EXPECT_EQ(engine.LoadCheckpoint(dir_).code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.checkpoint_attached());
  // A mistyped restore path must not leave directory trees behind.
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(CheckpointTest, LoadWithoutManifestIsNotFound) {
  // The MANIFEST commits a checkpoint; snapshot files alone are not one.
  workload::Scenario s = Shop(2, 4);
  {
    Engine engine(s.Context());
    engine.SetLog(s.log);
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  }
  ASSERT_TRUE(fs::remove(fs::path(dir_) / "MANIFEST.dpe"));
  Engine engine(s.Context());
  EXPECT_EQ(engine.LoadCheckpoint(dir_).code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.checkpoint_attached());
}

TEST_F(CheckpointTest, EvictedRecomputesAreNotReJournaled) {
  workload::Scenario s = Shop(37, 10);
  EngineOptions options;
  // Exactly the 45 cells of a 10-query triangle: the checkpoint holds it,
  // and the first row past it makes the measure too large to keep.
  options.cache_max_bytes = 10 * 9 / 2 * sizeof(double);
  Engine engine(s.Context(), options);
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->empty());

  // A genuinely new row journals exactly once. The build that computes it
  // leaves the triangle over budget, so it is evicted, and every rebuild
  // after that recomputes all rows; none of them are new, so the journal
  // must not grow per rebuild.
  workload::Scenario extra = Shop(38, 1);
  ASSERT_TRUE(engine.AddQuery(extra.log[0]).ok());
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  EXPECT_EQ(engine.cache_size(), 0u);
  BuildReport rebuild;
  ASSERT_TRUE(engine.BuildMatrix("token", &rebuild).ok());
  EXPECT_EQ(rebuild.cells_computed, 11u * 10 / 2);
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  size_t row_records = 0;
  for (const auto& record : *journal) {
    if (record.kind == store::JournalRecord::Kind::kRowComputed) {
      EXPECT_EQ(record.row, 10u);
      ++row_records;
    }
  }
  EXPECT_EQ(row_records, 1u);
}

TEST_F(CheckpointTest, CorruptSnapshotLeavesEngineUntouched) {
  workload::Scenario s = Shop(3, 8);
  {
    Engine engine(s.Context());
    engine.SetLog(s.log);
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  }
  const std::string path = (fs::path(dir_) / "snapshot.0.dpe").string();
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() - 3] = static_cast<char>(data[data.size() - 3] ^ 0x11);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();

  Engine engine(s.Context());
  engine.SetLog({s.log.begin(), s.log.begin() + 2});
  Status load_status = engine.LoadCheckpoint(dir_);
  EXPECT_EQ(load_status.code(), StatusCode::kParseError) << load_status;
  // The failed load must not have clobbered the engine's state.
  EXPECT_EQ(engine.log_size(), 2u);
  EXPECT_FALSE(engine.checkpoint_attached());
}

TEST_F(CheckpointTest, LoadToleratesJournalSubsumedBySnapshot) {
  // A crash between WriteSnapshot and TruncateJournal leaves a fresh
  // snapshot next to a stale journal whose records the snapshot already
  // contains. The load must skip them, not brick the checkpoint.
  workload::Scenario s = Shop(29, 10);
  Engine cold(s.Context());
  cold.SetLog(s.log);
  auto expect = cold.BuildMatrix("token");
  ASSERT_TRUE(expect.ok());
  {
    Engine engine(s.Context());
    engine.SetLog({s.log.begin(), s.log.begin() + 8});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    ASSERT_TRUE(engine.AddQuery(s.log[8]).ok());
    ASSERT_TRUE(engine.AddQuery(s.log[9]).ok());
    ASSERT_TRUE(engine.BuildMatrix("token").ok());  // journals rows 8, 9
    // Second SaveCheckpoint writes the 10-query snapshot; simulate the
    // crash by re-appending the (now subsumed) journal records ourselves.
    // In a real crash the stale records carry the same deterministic
    // distances the snapshot already holds — replayed here verbatim.
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  }
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendQuery(8, sql::ToSql(s.log[8])).ok());
    ASSERT_TRUE(store->AppendQuery(9, sql::ToSql(s.log[9])).ok());
    ASSERT_TRUE(store
                    ->AppendRow("token", 8,
                                std::span<const double>(
                                    expect->RowUnchecked(8), 8))
                    .ok());
  }

  Engine restored(s.Context());
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  EXPECT_EQ(restored.log_size(), 10u);

  auto got = restored.BuildMatrix("token");
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*expect, *got);
}

TEST_F(CheckpointTest, JournalRowWhoseValueCountIsNotItsRowIsParseError) {
  workload::Scenario s = Shop(31, 6);
  {
    Engine engine(s.Context());
    engine.SetLog(s.log);
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  }
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    // Valid CRC, nonsense content: one value for row 5, which holds five.
    const std::vector<double> one = {0.3};
    ASSERT_TRUE(store->AppendRow("token", 5, one).ok());
  }
  Engine engine(s.Context());
  EXPECT_EQ(engine.LoadCheckpoint(dir_).code(), StatusCode::kParseError);
}

TEST_F(CheckpointTest, CompactionRejectsAJournalRowOutsideTheLog) {
  // A CRC-valid row record past the end of the log is rejected by a load;
  // a fold must reject it the same way, or compaction would launder it into
  // a snapshot the next load accepts and a later build serves as a
  // distance.
  workload::Scenario s = Shop(31, 6);
  {
    Engine engine(s.Context());
    engine.SetLog(s.log);
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  }
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    const std::vector<double> row(7, 0.3);
    ASSERT_TRUE(store->AppendRow("token", 7, row).ok());
  }
  Engine engine(s.Context());
  EXPECT_EQ(engine.LoadCheckpoint(dir_).code(), StatusCode::kParseError);

  {
    auto store = store::MatrixStore::OpenExisting(dir_);
    ASSERT_TRUE(store.ok());
    auto plan = store->BeginCompaction();
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(plan->has_work);
    EXPECT_EQ(store->FoldFrozen(*plan).status().code(),
              StatusCode::kParseError);
    EXPECT_EQ(store->generation(), 0u);
  }

  // Through the engine: attach the checkpoint by saving the same 6-query
  // state, re-append the record, and compact.
  Engine saver(s.Context());
  saver.SetLog(s.log);
  ASSERT_TRUE(saver.SaveCheckpoint(dir_).ok());
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    const std::vector<double> row(7, 0.3);
    ASSERT_TRUE(store->AppendRow("token", 7, row).ok());
  }
  EXPECT_EQ(saver.CompactNow().status().code(), StatusCode::kParseError);
  EXPECT_EQ(saver.checkpoint_generation(), 0u);  // nothing published
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "snapshot.1.dpe"));

  Engine reloaded(s.Context());
  EXPECT_EQ(reloaded.LoadCheckpoint(dir_).code(), StatusCode::kParseError);
}

TEST_F(CheckpointTest, TornJournalTailRecoversOnLoad) {
  workload::Scenario s = Shop(43, 12);
  {
    Engine engine(s.Context());
    engine.SetLog({s.log.begin(), s.log.begin() + 10});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    ASSERT_TRUE(engine.AddQuery(s.log[10]).ok());
    ASSERT_TRUE(engine.BuildMatrix("token").ok());  // journals row 10
  }
  // The process is killed halfway through its next journal append.
  std::ofstream out(fs::path(dir_) / "journal.0.dpe",
                    std::ios::binary | std::ios::app);
  out.write("\x40\x00\x00\x00half", 8);
  out.close();

  Engine restored(s.Context());
  CheckpointLoadReport report;
  ASSERT_TRUE(restored.LoadCheckpoint(dir_, &report).ok());
  EXPECT_EQ(restored.log_size(), 11u);  // the intact records replayed

  // The load reports exactly what the tear cost: one half-flushed record,
  // the 8 appended garbage bytes.
  EXPECT_TRUE(report.journal_tail_truncated);
  EXPECT_EQ(report.dropped_journal_records, 1u);
  EXPECT_EQ(report.dropped_journal_bytes, 8u);

  // The restored engine keeps working: append + rebuild, bit-identical.
  ASSERT_TRUE(restored.AddQuery(s.log[11]).ok());
  auto rebuilt = restored.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  Engine cold(s.Context());
  cold.SetLog(s.log);
  auto expect = cold.BuildMatrix("token");
  ASSERT_TRUE(expect.ok());
  ExpectBitIdentical(*expect, *rebuilt);

  // A second load of the (repaired) checkpoint reports a clean journal.
  Engine again(s.Context());
  CheckpointLoadReport clean;
  ASSERT_TRUE(again.LoadCheckpoint(dir_, &clean).ok());
  EXPECT_FALSE(clean.journal_tail_truncated);
  EXPECT_EQ(clean.dropped_journal_records, 0u);
  EXPECT_EQ(clean.dropped_journal_bytes, 0u);
}

TEST_F(CheckpointTest, KillMidAppendEveryCutPointRecoversOrFailsStrictly) {
  // Kill the process at *every possible byte* of a journal append: the
  // tolerant load must recover the intact prefix (reporting the drop), the
  // strict load must refuse — and neither may ever see garbage.
  workload::Scenario s = Shop(59, 12);
  {
    Engine engine(s.Context());
    engine.SetLog({s.log.begin(), s.log.begin() + 10});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    ASSERT_TRUE(engine.AddQuery(s.log[10]).ok());
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.AddQuery(s.log[11]).ok());  // the record we tear
  }
  const fs::path journal = fs::path(dir_) / "journal.0.dpe";
  std::ifstream in(journal, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // The last append was AddQuery(log[11]): find where it starts by replaying
  // the sizes — simpler: cut at every byte after the penultimate record and
  // re-load. (Cut points inside earlier records would be mid-stream
  // corruption, a different failure class tested elsewhere.)
  size_t intact_prefix = 0;
  EngineOptions strict_options;
  strict_options.tolerate_torn_journal = false;
  // Walk the cut point backwards from one-byte-short until it lands on the
  // record boundary where the torn record starts.
  for (size_t cut = full.size(); cut-- > 8;) {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    Engine strict_engine(s.Context(), strict_options);
    Status strict_status = strict_engine.LoadCheckpoint(dir_);
    Engine tolerant(s.Context());
    CheckpointLoadReport report;
    Status tolerant_status = tolerant.LoadCheckpoint(dir_, &report);
    ASSERT_TRUE(tolerant_status.ok()) << "cut " << cut << ": "
                                      << tolerant_status;
    // The torn record is AddQuery(log[11]); with it dropped the replayed
    // log holds 11 queries either way.
    EXPECT_EQ(tolerant.log_size(), 11u) << "cut " << cut;
    if (!report.journal_tail_truncated) {
      // Cut landed exactly on the record boundary: nothing torn, the
      // strict load agrees, and the sweep is done.
      EXPECT_TRUE(strict_status.ok()) << "cut " << cut << ": "
                                      << strict_status;
      EXPECT_EQ(report.dropped_journal_records, 0u);
      EXPECT_EQ(report.dropped_journal_bytes, 0u);
      intact_prefix = cut;
      break;
    }
    EXPECT_EQ(report.dropped_journal_records, 1u) << "cut " << cut;
    EXPECT_GT(report.dropped_journal_bytes, 0u) << "cut " << cut;
    // Strict mode refuses the torn tail with a typed error.
    EXPECT_EQ(strict_status.code(), StatusCode::kParseError) << "cut " << cut;
    // Tolerant recovery repaired the file: a strict re-load now works.
    Engine after_repair(s.Context(), strict_options);
    EXPECT_TRUE(after_repair.LoadCheckpoint(dir_).ok()) << "cut " << cut;
    EXPECT_EQ(after_repair.log_size(), 11u) << "cut " << cut;
  }
  EXPECT_GT(intact_prefix, 8u);  // the boundary cut was found
}

TEST_F(CheckpointTest, MeasureBuiltAfterCheckpointIsPersistedViaJournal) {
  workload::Scenario s = Shop(47, 10);
  {
    Engine engine(s.Context());
    engine.SetLog(s.log);
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    // "structure" is first built after the checkpoint: its rows must be
    // journaled (per-measure watermark), not silently dropped.
    ASSERT_TRUE(engine.BuildMatrix("structure").ok());
  }
  Engine restored(s.Context());
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  ASSERT_TRUE(restored.BuildMatrix("structure").ok());
  EXPECT_EQ(restored.cache_stats().misses, 0u);  // fully replayed
}

TEST_F(CheckpointTest, RowsQueriedButNotBuiltBeforeSaveStillJournal) {
  // Checkpoint taken while the matrix lags the log: 5 rows built, 5 more
  // queries appended un-built. The watermark must reflect snapshot
  // coverage (5 rows), not the log size, so the later build journals the
  // missing rows and a restart replays everything.
  workload::Scenario s = Shop(53, 10);
  {
    Engine engine(s.Context());
    engine.SetLog({s.log.begin(), s.log.begin() + 5});
    ASSERT_TRUE(engine.BuildMatrix("token").ok());
    for (size_t i = 5; i < 10; ++i) {
      ASSERT_TRUE(engine.AddQuery(s.log[i]).ok());
    }
    ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
    ASSERT_TRUE(engine.BuildMatrix("token").ok());  // rows 5..9 journal here
  }
  Engine restored(s.Context());
  ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
  ASSERT_TRUE(restored.BuildMatrix("token").ok());
  EXPECT_EQ(restored.cache_stats().misses, 0u);  // nothing recomputed
}

TEST_F(CheckpointTest, SetLogDetachesCheckpoint) {
  workload::Scenario s = Shop(5, 6);
  Engine engine(s.Context());
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
  ASSERT_TRUE(engine.checkpoint_attached());
  engine.SetLog(s.log);
  EXPECT_FALSE(engine.checkpoint_attached());
}

}  // namespace
}  // namespace dpe::engine
