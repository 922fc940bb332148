// Online compaction: fold-and-publish semantics plus the crash matrix.
//
// The contract under test (matrix_store.h, "Online compaction"): a
// BeginCompaction/FoldFrozen/PublishCompaction cycle folds the frozen
// journal into snapshot generation g+1 while appends continue into the
// rotated journal — and a kill at ANY fault point (or any byte of the
// MANIFEST) recovers to either the old or the new generation with the
// exact same materialized state, never a mix. The fork-based crash tests
// arm common/fault.h die points in a child process and assert the parent
// can reopen, see the reference state bit-for-bit, and compact again;
// ScrubCrashTest kills Scrub's journal rewrite the same way.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "store/matrix_store.h"

namespace dpe::store {
namespace {

namespace fs = std::filesystem;

std::string ReadAllBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Generation-independent view of a store directory: the query log plus
/// every measure's triangle, after snapshot read + ApplyJournal over the
/// full journal. Two directories holding "the same state" compare equal
/// here no matter which generation (or how much journal tail) each one
/// carries it in.
struct MaterializedState {
  std::vector<std::string> queries;
  std::map<std::string, distance::DistanceTriangle> triangles;

  bool operator==(const MaterializedState&) const = default;
};

Result<MaterializedState> Materialize(const std::string& dir) {
  auto store = MatrixStore::OpenExisting(dir);
  if (!store.ok()) return store.status();
  Snapshot state;
  auto snapshot = store->ReadSnapshot();
  if (snapshot.ok()) {
    state = std::move(*snapshot);
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }
  auto journal = store->ReadJournal();
  if (!journal.ok()) return journal.status();
  DPE_RETURN_NOT_OK(ApplyJournal(*journal, &state));
  return MaterializedState{std::move(state.queries),
                           std::move(state.triangles)};
}

distance::DistanceTriangle Triangle(
    const std::vector<std::vector<double>>& rows) {
  distance::DistanceTriangle t;
  for (const std::vector<double>& row : rows) {
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

Snapshot BaseSnapshot() {
  Snapshot snap;
  snap.queries = {"SELECT a FROM t0", "SELECT b FROM t1", "SELECT c FROM t2"};
  snap.triangles["token"] = Triangle({{}, {0.25}, {0.5, 0.75}});
  snap.triangles["structure"] = Triangle({{}, {0.125}});
  return snap;
}

/// Journal tail on top of BaseSnapshot: one appended query plus rows.
void SeedJournal(MatrixStore& store) {
  ASSERT_TRUE(store.AppendQuery(3, "SELECT d FROM t3").ok());
  ASSERT_TRUE(
      store.AppendRow("token", 3, std::vector<double>{0.1, 0.2, 0.3}).ok());
  ASSERT_TRUE(
      store.AppendRow("structure", 2, std::vector<double>{0.4, 0.45}).ok());
}

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("compaction_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(CompactionTest, ManualCycleFoldsJournalIntoNextGeneration) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  SeedJournal(*store);
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->has_work);
  EXPECT_EQ(plan->from_gen, 0u);
  EXPECT_EQ(plan->to_gen, 1u);
  EXPECT_EQ(store->journal_generation(), 1u);

  // Appends keep landing while the fold runs — they go to the rotated
  // journal and must survive the publish untouched.
  ASSERT_TRUE(store->AppendQuery(4, "SELECT e FROM t4").ok());
  ASSERT_TRUE(
      store->AppendRow("token", 4, std::vector<double>{0.9, 0.8, 0.7, 0.6})
          .ok());

  auto folded = store->FoldFrozen(*plan);
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_EQ(folded->queries.size(), 4u);  // base 3 + the folded append

  auto published = store->PublishCompaction(*plan, *folded);
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_TRUE(*published);
  EXPECT_EQ(store->generation(), 1u);
  EXPECT_EQ(store->journal_generation(), 1u);

  // Old generation swept; new generation + manifest landed; the rotated
  // journal (with the mid-compaction appends) is the active one.
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "snapshot.0.dpe"));
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "journal.0.dpe"));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "snapshot.1.dpe"));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "MANIFEST.dpe"));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "journal.1.dpe"));

  auto state = Materialize(dir_);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->queries.size(), 5u);
  EXPECT_EQ(state->queries[4], "SELECT e FROM t4");
  const distance::DistanceTriangle& token = state->triangles.at("token");
  ASSERT_EQ(token.rows(), 5u);
  EXPECT_EQ(token.Row(3)[0], 0.1);
  EXPECT_EQ(token.Row(4)[0], 0.9);
  EXPECT_EQ(state->triangles.at("structure").rows(), 3u);
}

TEST_F(CompactionTest, BeginWithEmptyJournalHasNoWork) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->has_work);
  // No rotation happened: the store is exactly where it was.
  EXPECT_EQ(store->generation(), 0u);
  EXPECT_EQ(store->journal_generation(), 0u);
  auto published = store->PublishCompaction(*plan, Snapshot{});
  ASSERT_TRUE(published.ok());
  EXPECT_FALSE(*published);
}

TEST_F(CompactionTest, ARowTheSnapshotAlreadyHoldsIsFoldedOnce) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Snapshot base = BaseSnapshot();
  ASSERT_TRUE(store->WriteSnapshot(base).ok());
  // The journal carries row 2 again (a save that crashed before truncating
  // its journal): the snapshot already holds it, so the fold keeps it once.
  ASSERT_TRUE(
      store->AppendRow("token", 2, std::vector<double>{0.5, 0.75}).ok());
  SeedJournal(*store);
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok());
  auto folded = store->FoldFrozen(*plan);
  ASSERT_TRUE(folded.ok()) << folded.status();
  const distance::DistanceTriangle& token = folded->triangles.at("token");
  ASSERT_EQ(token.rows(), 4u);
  EXPECT_EQ(token.cells(), 6u);
  EXPECT_EQ(token.Row(2)[1], 0.75);
  EXPECT_EQ(token.Row(3)[2], 0.3);
}

TEST_F(CompactionTest, FoldRejectsARowOutsideTheLog) {
  // A CRC-valid row record ahead of its query is a record a restore
  // rejects; the fold rejects it too instead of publishing it.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  ASSERT_TRUE(
      store->AppendRow("token", 3, std::vector<double>{0.1, 0.2, 0.3}).ok());
  ASSERT_TRUE(store->AppendQuery(3, "SELECT d FROM t3").ok());
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(store->FoldFrozen(*plan).status().code(), StatusCode::kParseError);
  EXPECT_EQ(Materialize(dir_).status().code(), StatusCode::kParseError);
  EXPECT_EQ(store->generation(), 0u);
}

TEST_F(CompactionTest, PublishAbortsWhenACheckpointSupersedesThePlan) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  SeedJournal(*store);
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok());
  auto folded = store->FoldFrozen(*plan);
  ASSERT_TRUE(folded.ok());

  // A full checkpoint lands while the fold was running: it already covers
  // everything the fold covered (and more), so the publish must abort.
  Snapshot superseding = *folded;
  superseding.queries.push_back("SELECT f FROM t5");
  ASSERT_TRUE(store->WriteSnapshot(superseding).ok());
  ASSERT_TRUE(store->TruncateJournal().ok());

  auto published = store->PublishCompaction(*plan, *folded);
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_FALSE(*published) << "a stale fold must not clobber a newer "
                              "checkpoint";

  auto state = Materialize(dir_);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->queries.size(), 5u);
  EXPECT_EQ(state->queries.back(), "SELECT f FROM t5");
}

TEST_F(CompactionTest, SecondFoldOfAPublishedGenerationAborts) {
  // Two cycles can plan the same generation (an explicit CompactNow racing
  // the background trigger). Once one publishes, its sweep removes the
  // files the other folds from; that stale fold must not be published.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  SeedJournal(*store);
  auto reference = Materialize(dir_);
  ASSERT_TRUE(reference.ok());

  auto first = store->BeginCompaction();
  auto second = store->BeginCompaction();
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->from_gen, second->from_gen);
  auto first_folded = store->FoldFrozen(*first);
  ASSERT_TRUE(first_folded.ok());
  auto published = store->PublishCompaction(*first, *first_folded);
  ASSERT_TRUE(published.ok() && *published);

  auto second_folded = store->FoldFrozen(*second);  // its inputs are gone
  ASSERT_TRUE(second_folded.ok()) << second_folded.status();
  auto stale = store->PublishCompaction(*second, *second_folded);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_FALSE(*stale);
  auto state = Materialize(dir_);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, *reference);
}

TEST_F(CompactionTest, ManifestTruncatedAtEveryByteStillRecoversTheFullState) {
  // Run a full compaction (with a post-rotation journal tail), then truncate
  // the MANIFEST at every possible byte: the scan fallback must resolve the
  // same generation and the materialized state must never change.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  SeedJournal(*store);
  auto plan = store->BeginCompaction();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(store->AppendQuery(4, "SELECT e FROM t4").ok());
  auto folded = store->FoldFrozen(*plan);
  ASSERT_TRUE(folded.ok());
  auto published = store->PublishCompaction(*plan, *folded);
  ASSERT_TRUE(published.ok());
  ASSERT_TRUE(*published);

  const fs::path manifest = fs::path(dir_) / "MANIFEST.dpe";
  const std::string full = ReadAllBytes(manifest);
  ASSERT_GT(full.size(), 8u);
  auto reference = Materialize(dir_);
  ASSERT_TRUE(reference.ok());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteBytes(manifest, full.substr(0, cut));
    auto reopened = MatrixStore::OpenExisting(dir_);
    ASSERT_TRUE(reopened.ok()) << "cut " << cut;
    EXPECT_EQ(reopened->generation(), 1u) << "cut " << cut;
    auto state = Materialize(dir_);
    ASSERT_TRUE(state.ok()) << "cut " << cut << ": " << state.status();
    EXPECT_EQ(*state, *reference) << "cut " << cut;
  }
  WriteBytes(manifest, full);
}

// -- Crash matrix -------------------------------------------------------------

/// Forked-child body: arm one die point, run a full compaction cycle, and
/// exit 0 only if the fault never fired (which fails the parent's 137
/// assertion). No gtest in the child — only _exit codes.
[[noreturn]] void RunCompactionCycleThenExit(const std::string& dir,
                                             const std::string& spec) {
  if (!common::FaultInjector::Global().Arm(spec)) _exit(10);
  auto store = MatrixStore::Open(dir);
  if (!store.ok()) _exit(11);
  auto plan = store->BeginCompaction();
  if (!plan.ok()) _exit(12);
  auto folded = store->FoldFrozen(*plan);
  if (!folded.ok()) _exit(13);
  auto published = store->PublishCompaction(*plan, *folded);
  if (!published.ok() || !*published) _exit(14);
  _exit(0);
}

class CompactionCrashTest : public CompactionTest {};

TEST_F(CompactionCrashTest, KillAtEveryFaultPointRecoversTheReferenceState) {
  // One die point per compaction step, plus a torn framed write under each
  // of the two atomic file writes the publish performs (snapshot, then
  // manifest). Every kill must leave a directory that reopens to the exact
  // reference state and still accepts appends + a follow-up compaction.
  const std::vector<std::string> kDieSpecs = {
      "store.compaction.rotate=die",
      "store.compaction.before_snapshot=die",
      "store.compaction.after_snapshot=die",
      "store.compaction.after_manifest=die",
      "store.compaction.before_cleanup=die",
      "store.frame.mid_write=die",    // torn snapshot.<g+1> tmp
      "store.frame.mid_write=die@2",  // torn MANIFEST tmp
  };
  int case_index = 0;
  for (const std::string& spec : kDieSpecs) {
    const std::string dir =
        (fs::path(dir_) / ("case_" + std::to_string(case_index++))).string();
    {
      auto store = MatrixStore::Open(dir);
      ASSERT_TRUE(store.ok()) << spec;
      ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok()) << spec;
      SeedJournal(*store);
    }
    auto reference = Materialize(dir);
    ASSERT_TRUE(reference.ok()) << spec;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << spec;
    if (pid == 0) RunCompactionCycleThenExit(dir, spec);
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid) << spec;
    ASSERT_TRUE(WIFEXITED(wstatus)) << spec;
    ASSERT_EQ(WEXITSTATUS(wstatus), 137) << spec << ": the fault point "
                                                    "never fired";

    // Recovery: the exact pre-crash state, whichever generation carries it.
    auto recovered = Materialize(dir);
    ASSERT_TRUE(recovered.ok()) << spec << ": " << recovered.status();
    EXPECT_EQ(*recovered, *reference) << spec;

    // The survivor is not a dead end: append, compact fully, recheck.
    auto reopened = MatrixStore::OpenExisting(dir);
    ASSERT_TRUE(reopened.ok()) << spec;
    const auto next_index = static_cast<uint32_t>(reference->queries.size());
    ASSERT_TRUE(reopened->AppendQuery(next_index, "SELECT z FROM t9").ok())
        << spec;
    auto plan = reopened->BeginCompaction();
    ASSERT_TRUE(plan.ok()) << spec;
    ASSERT_TRUE(plan->has_work) << spec;
    auto folded = reopened->FoldFrozen(*plan);
    ASSERT_TRUE(folded.ok()) << spec << ": " << folded.status();
    auto published = reopened->PublishCompaction(*plan, *folded);
    ASSERT_TRUE(published.ok()) << spec << ": " << published.status();
    EXPECT_TRUE(*published) << spec;
    EXPECT_GE(reopened->generation(), 1u) << spec;

    MaterializedState expected = *reference;
    expected.queries.push_back("SELECT z FROM t9");
    auto final_state = Materialize(dir);
    ASSERT_TRUE(final_state.ok()) << spec;
    EXPECT_EQ(*final_state, expected) << spec;
  }
}

/// Forked-child body: arm one die point and write `snapshot` as a full
/// checkpoint; exits 0 only if the fault never fired.
[[noreturn]] void WriteSnapshotThenExit(const std::string& dir,
                                        const std::string& spec,
                                        const Snapshot& snapshot) {
  if (!common::FaultInjector::Global().Arm(spec)) _exit(10);
  auto store = MatrixStore::Open(dir);
  if (!store.ok()) _exit(11);
  if (!store->WriteSnapshot(snapshot).ok()) _exit(12);
  _exit(0);
}

class CheckpointCrashTest : public CompactionTest {};

TEST_F(CheckpointCrashTest, KillDuringEitherWriteCommitsAllOrNothing) {
  // WriteSnapshot makes two atomic framed writes: the snapshot, then the
  // MANIFEST that commits it. A kill inside either leaves a fresh store
  // with no checkpoint, and a store that had one at its old or new state.
  const std::vector<std::string> kDieSpecs = {
      "store.frame.mid_write=die",    // torn snapshot tmp
      "store.frame.mid_write=die@2",  // torn MANIFEST tmp
  };
  const Snapshot base = BaseSnapshot();
  Snapshot resaved = base;
  resaved.queries.push_back("SELECT d FROM t3");
  ASSERT_TRUE(resaved.triangles["token"]
                  .AppendRow(std::vector<double>{0.1, 0.2, 0.3})
                  .ok());
  int case_index = 0;
  for (const std::string& spec : kDieSpecs) {
    for (const bool fresh : {true, false}) {
      SCOPED_TRACE(spec + (fresh ? " on a fresh store" : " on a re-save"));
      const std::string dir =
          (fs::path(dir_) / ("case_" + std::to_string(case_index++)))
              .string();
      if (!fresh) {
        auto store = MatrixStore::Open(dir);
        ASSERT_TRUE(store.ok());
        ASSERT_TRUE(store->WriteSnapshot(base).ok());
      }
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) WriteSnapshotThenExit(dir, spec, resaved);
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "the fault point never fired";

      auto reopened = MatrixStore::OpenExisting(dir);
      ASSERT_TRUE(reopened.ok());
      auto read = reopened->ReadSnapshot();
      if (fresh) {
        EXPECT_EQ(read.status().code(), StatusCode::kNotFound)
            << read.status();
        EXPECT_FALSE(reopened->HasSnapshot());
        // Not a dead end: a clean save commits.
        ASSERT_TRUE(reopened->WriteSnapshot(resaved).ok());
        auto saved = reopened->ReadSnapshot();
        ASSERT_TRUE(saved.ok()) << saved.status();
        EXPECT_EQ(saved->queries, resaved.queries);
      } else {
        ASSERT_TRUE(read.ok()) << read.status();
        const Snapshot& expect =
            read->queries == resaved.queries ? resaved : base;
        EXPECT_EQ(read->queries, expect.queries);
        EXPECT_EQ(read->triangles, expect.triangles);
      }
    }
  }
}

/// Forked-child body: arm one die point and scrub `dir`; exits 0 only if
/// the fault never fired.
[[noreturn]] void ScrubThenExit(const std::string& dir,
                                const std::string& spec) {
  if (!common::FaultInjector::Global().Arm(spec)) _exit(10);
  auto store = MatrixStore::OpenExisting(dir);
  if (!store.ok()) _exit(11);
  if (!store->Scrub().ok()) _exit(12);
  _exit(0);
}

class ScrubCrashTest : public CompactionTest {};

TEST_F(ScrubCrashTest, KillDuringTheJournalRewriteLeavesARepairableStore) {
  // Scrub rewrites a damaged journal through the same atomic writer as
  // every framed file. A kill inside that rewrite leaves the damaged
  // journal in place; a second scrub then repairs the store to exactly
  // what an uninterrupted scrub leaves.
  const fs::path seeded = fs::path(dir_) / "seeded";
  {
    auto store = MatrixStore::Open(seeded.string());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
    SeedJournal(*store);
  }
  // Flip the last byte of the last record's payload: its checksum fails,
  // the two records before it survive.
  const fs::path journal = seeded / "journal.0.dpe";
  std::string damaged = ReadAllBytes(journal);
  damaged.back() = static_cast<char>(damaged.back() ^ 0x42);
  WriteBytes(journal, damaged);

  const fs::path reference_dir = fs::path(dir_) / "reference";
  const fs::path killed_dir = fs::path(dir_) / "killed";
  fs::copy(seeded, reference_dir, fs::copy_options::recursive);
  fs::copy(seeded, killed_dir, fs::copy_options::recursive);
  {
    auto store = MatrixStore::OpenExisting(reference_dir.string());
    ASSERT_TRUE(store.ok());
    auto report = store->Scrub();
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->journal_rewritten);
  }
  auto expected = Materialize(reference_dir.string());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(expected->queries.size(), 4u);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ScrubThenExit(killed_dir.string(), "store.frame.mid_write=die");
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 137) << "the fault point never fired";
  EXPECT_EQ(ReadAllBytes(killed_dir / "journal.0.dpe"), damaged)
      << "the torn rewrite replaced the journal";

  auto reopened = MatrixStore::OpenExisting(killed_dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto report = reopened->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->journal_rewritten);
  auto recovered = Materialize(killed_dir.string());
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(*recovered, *expected);
}

}  // namespace
}  // namespace dpe::store
