// Scrub(): quarantine-and-rewrite repair of localized corruption.
//
// The invariant under test (matrix_store.h): a scrub never invents state.
// Whatever a byte flip destroys, the repaired store serves a value-correct
// PREFIX of each reference triangle — recovered rows match the reference
// exactly, lost cells are counted as quarantined, and unsalvageable damage
// (the query-log core) leaves strict loads failing typed rather than
// producing a wrong matrix. The flip-every-byte sweep proves that for every
// possible single-byte corruption of a snapshot.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
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

size_t Cells(const Snapshot& snapshot) {
  size_t cells = 0;
  for (const auto& [name, triangle] : snapshot.triangles) {
    cells += triangle.cells();
  }
  return cells;
}

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("scrub_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(ScrubTest, CleanStoreScrubsAsANoOp) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  ASSERT_TRUE(store->AppendQuery(3, "SELECT d FROM t3").ok());
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->manifest_rebuilt);
  EXPECT_FALSE(report->snapshot_rewritten);
  EXPECT_FALSE(report->snapshot_unreadable);
  EXPECT_FALSE(report->journal_rewritten);
  EXPECT_EQ(report->cells_quarantined, 0u);
  EXPECT_EQ(report->journal_records_quarantined, 0u);
  EXPECT_GT(report->snapshot_chunks_checked, 0u);
  EXPECT_EQ(report->journal_records_checked, 1u);
  EXPECT_TRUE(store->ReadSnapshot().ok());
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->size(), 1u);
}

TEST_F(ScrubTest, FlipEveryByteOfTheSnapshotNeverYieldsAWrongCell) {
  const Snapshot reference = BaseSnapshot();
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(reference).ok());
  }
  const fs::path snapshot_path = fs::path(dir_) / "snapshot.0.dpe";
  const std::string full = ReadAllBytes(snapshot_path);
  ASSERT_GT(full.size(), 16u);

  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string damaged = full;
    damaged[flip] = static_cast<char>(damaged[flip] ^ 0x5a);
    WriteBytes(snapshot_path, damaged);

    // The strict load must fail typed or — never anything in between —
    // deliver the exact reference (a flip in bytes the decode ignores).
    bool strict_ok = false;
    {
      auto store = MatrixStore::OpenExisting(dir_);
      ASSERT_TRUE(store.ok()) << "flip " << flip;
      auto strict = store->ReadSnapshot();
      strict_ok = strict.ok();
      if (strict.ok()) {
        EXPECT_EQ(strict->queries, reference.queries) << "flip " << flip;
        EXPECT_EQ(strict->triangles, reference.triangles) << "flip " << flip;
      } else {
        EXPECT_EQ(strict.status().code(), StatusCode::kParseError)
            << "flip " << flip << ": " << strict.status();
      }
    }

    auto store = MatrixStore::OpenExisting(dir_);
    ASSERT_TRUE(store.ok()) << "flip " << flip;
    auto report = store->Scrub();
    ASSERT_TRUE(report.ok()) << "flip " << flip << ": " << report.status();
    // Both read the file through one decoder, so they judge it alike: the
    // strict load succeeds exactly when the scrub finds nothing to repair.
    EXPECT_EQ(strict_ok, !report->snapshot_rewritten &&
                             !report->snapshot_unreadable &&
                             !report->manifest_rebuilt)
        << "flip " << flip;
    if (report->snapshot_unreadable) {
      // Core/structural damage: unsalvageable, and the strict load must
      // keep failing typed rather than serve a guess.
      EXPECT_FALSE(store->ReadSnapshot().ok()) << "flip " << flip;
      continue;
    }
    auto repaired = store->ReadSnapshot();
    ASSERT_TRUE(repaired.ok()) << "flip " << flip << ": "
                               << repaired.status();
    // The query log is either fully intact or the file was unreadable.
    EXPECT_EQ(repaired->queries, reference.queries) << "flip " << flip;
    // Every measure survives as a prefix of its reference rows, each row
    // carrying its exact reference values; nothing is invented.
    for (const auto& [name, triangle] : repaired->triangles) {
      auto it = reference.triangles.find(name);
      ASSERT_NE(it, reference.triangles.end())
          << "flip " << flip << ": invented measure " << name;
      ASSERT_LE(triangle.rows(), it->second.rows()) << "flip " << flip;
      for (size_t r = 0; r < triangle.rows(); ++r) {
        EXPECT_TRUE(std::ranges::equal(triangle.Row(r), it->second.Row(r)))
            << "flip " << flip << ": " << name << " row " << r;
      }
    }
    EXPECT_EQ(report->cells_quarantined, Cells(reference) - Cells(*repaired))
        << "flip " << flip;
    // A second scrub finds nothing left to repair.
    auto again = store->Scrub();
    ASSERT_TRUE(again.ok()) << "flip " << flip;
    EXPECT_FALSE(again->snapshot_rewritten) << "flip " << flip;
    EXPECT_EQ(again->cells_quarantined, 0u) << "flip " << flip;
  }
  WriteBytes(snapshot_path, full);
}

TEST_F(ScrubTest, DamagedChunkIsQuarantinedAndTheRestSurvives) {
  // Each small triangle fits one chunk, and "token" sorts after
  // "structure", so the file ends inside token's chunk: a flip there
  // quarantines token's rows while the query-log core and "structure"
  // survive intact.
  Snapshot snap = BaseSnapshot();
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(snap).ok());
  }
  const fs::path path = fs::path(dir_) / "snapshot.0.dpe";
  std::string bytes = ReadAllBytes(path);
  // Last byte sits inside the final chunk's payload.
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xff);
  WriteBytes(path, bytes);

  auto store = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->ReadSnapshot().status().code(), StatusCode::kParseError);
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->snapshot_rewritten);
  EXPECT_FALSE(report->snapshot_unreadable);
  EXPECT_EQ(report->snapshot_chunks_quarantined, 1u);
  EXPECT_EQ(report->cells_quarantined, snap.triangles.at("token").cells());

  auto repaired = store->ReadSnapshot();
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->queries, snap.queries);
  // The measure keeps its entry, truncated to the rows before the damage,
  // so a load still knows to recompute it.
  ASSERT_EQ(repaired->triangles.count("token"), 1u);
  EXPECT_EQ(repaired->triangles.at("token").rows(), 0u);
  EXPECT_EQ(repaired->triangles.at("structure"),
            snap.triangles.at("structure"));
}

TEST_F(ScrubTest, CorruptManifestIsRebuiltFromTheHighestReadableGeneration) {
  // Compact to generation 1, then smash the MANIFEST: the open must fall
  // back to scanning (same generation), and Scrub must persist the repair.
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
    ASSERT_TRUE(store->AppendQuery(3, "SELECT d FROM t3").ok());
    auto plan = store->BeginCompaction();
    ASSERT_TRUE(plan.ok());
    auto folded = store->FoldFrozen(*plan);
    ASSERT_TRUE(folded.ok());
    auto published = store->PublishCompaction(*plan, *folded);
    ASSERT_TRUE(published.ok());
    ASSERT_TRUE(*published);
  }
  const fs::path manifest = fs::path(dir_) / "MANIFEST.dpe";
  std::string bytes = ReadAllBytes(manifest);
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x10);
  WriteBytes(manifest, bytes);

  auto store = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->generation(), 1u);  // scan fallback found snapshot.1
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->manifest_rebuilt);

  // The rebuilt manifest reads clean: a fresh open needs no fallback and a
  // fresh scrub has nothing to do.
  auto reopened = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->generation(), 1u);
  auto again = reopened->Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->manifest_rebuilt);
}

TEST_F(ScrubTest, MidStreamJournalCorruptionIsQuarantinedNotReplayed) {
  std::vector<JournalRecord> originals;
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
    for (uint32_t q = 3; q < 8; ++q) {
      ASSERT_TRUE(
          store->AppendQuery(q, "SELECT q" + std::to_string(q) + " FROM t")
              .ok());
    }
    auto journal = store->ReadJournal();
    ASSERT_TRUE(journal.ok());
    originals = *journal;
    ASSERT_EQ(originals.size(), 5u);
  }
  const fs::path path = fs::path(dir_) / "journal.0.dpe";
  std::string bytes = ReadAllBytes(path);
  // Flip a byte inside an early record's payload (prologue is 8 bytes, each
  // record has an 8-byte header): mid-stream, not a torn tail.
  bytes[20] = static_cast<char>(bytes[20] ^ 0x42);
  WriteBytes(path, bytes);

  auto store = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->ReadJournal().status().code(), StatusCode::kParseError);

  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->journal_rewritten);
  EXPECT_GE(report->journal_records_quarantined, 1u);
  EXPECT_GT(report->journal_bytes_quarantined, 0u);

  // Survivors are an in-order subsequence of the original records — the
  // resync may drop neighbors of the damage but must never mint a record.
  auto survivors = store->ReadJournal();
  ASSERT_TRUE(survivors.ok()) << survivors.status();
  EXPECT_LT(survivors->size(), originals.size());
  size_t cursor = 0;
  for (const JournalRecord& got : *survivors) {
    bool matched = false;
    while (cursor < originals.size()) {
      const JournalRecord& want = originals[cursor++];
      if (got.kind == want.kind && got.index == want.index &&
          got.sql == want.sql) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "scrubbed journal contains a record that was "
                            "never appended";
  }
}

bool SameRecord(const JournalRecord& a, const JournalRecord& b) {
  return a.kind == b.kind && a.index == b.index && a.sql == b.sql &&
         a.measure == b.measure && a.row == b.row && a.values == b.values;
}

/// True if `got` is `of` with some records left out, in the same order.
bool IsInOrderSubsequence(const std::vector<JournalRecord>& got,
                          const std::vector<JournalRecord>& of) {
  size_t cursor = 0;
  for (const JournalRecord& record : got) {
    while (cursor < of.size() && !SameRecord(of[cursor], record)) ++cursor;
    if (cursor == of.size()) return false;
    ++cursor;
  }
  return true;
}

TEST_F(ScrubTest, JournalReadersAgreeOnEveryCutAndFlip) {
  // The strict read, the crash recovery and the scrub read journal files
  // through one reader, so their verdicts on a damaged file must fit
  // together. For every cut point and every single-byte flip: the strict
  // read succeeds exactly when the scrub leaves the file as it is, a
  // recovery returns a prefix of the appended records, and the scrub keeps
  // an in-order subsequence of them that holds everything recovered.
  std::vector<JournalRecord> appended;
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendQuery(0, "SELECT a FROM t0").ok());
    ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.25}).ok());
    ASSERT_TRUE(store->AppendQuery(1, "SELECT b FROM t1 WHERE b = 'x'").ok());
    ASSERT_TRUE(
        store->AppendRow("token", 2, std::vector<double>{0.5, 0.75}).ok());
    auto journal = store->ReadJournal();
    ASSERT_TRUE(journal.ok()) << journal.status();
    appended = *journal;
    ASSERT_EQ(appended.size(), 4u);
  }
  const fs::path path = fs::path(dir_) / "journal.0.dpe";
  const std::string full = ReadAllBytes(path);

  std::vector<std::pair<std::string, std::string>> variants;
  for (size_t cut = 0; cut <= full.size(); ++cut) {
    variants.emplace_back("cut " + std::to_string(cut), full.substr(0, cut));
  }
  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string damaged = full;
    damaged[flip] = static_cast<char>(damaged[flip] ^ 0x5a);
    variants.emplace_back("flip " + std::to_string(flip), std::move(damaged));
  }

  for (const auto& [what, bytes] : variants) {
    WriteBytes(path, bytes);
    auto store = MatrixStore::OpenExisting(dir_);
    ASSERT_TRUE(store.ok()) << what;
    const bool strict_ok = store->ReadJournal().ok();
    auto recovered = store->RecoverJournal();
    if (recovered.ok()) {
      ASSERT_LE(recovered->records.size(), appended.size()) << what;
      for (size_t k = 0; k < recovered->records.size(); ++k) {
        EXPECT_TRUE(SameRecord(recovered->records[k], appended[k]))
            << what << ": recovered record " << k;
      }
    }

    WriteBytes(path, bytes);  // the recovery may have cut the file
    auto report = store->Scrub();
    ASSERT_TRUE(report.ok()) << what << ": " << report.status();
    EXPECT_EQ(strict_ok, !report->journal_rewritten) << what;
    if (!report->journal_rewritten) {
      EXPECT_EQ(ReadAllBytes(path), bytes) << what;
    }
    auto kept = store->ReadJournal();
    ASSERT_TRUE(kept.ok()) << what << ": " << kept.status();
    EXPECT_TRUE(IsInOrderSubsequence(*kept, appended)) << what;
    if (recovered.ok()) {
      ASSERT_GE(kept->size(), recovered->records.size()) << what;
      for (size_t k = 0; k < recovered->records.size(); ++k) {
        EXPECT_TRUE(SameRecord((*kept)[k], recovered->records[k]))
            << what << ": scrub lost recovered record " << k;
      }
    }
  }
}

TEST_F(ScrubTest, GarbageJournalPrologueQuarantinesTheWholeFile) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(BaseSnapshot()).ok());
  const fs::path path = fs::path(dir_) / "journal.0.dpe";
  WriteBytes(path, "this is not a journal at all");

  EXPECT_FALSE(store->ReadJournal().ok());
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->journal_rewritten);
  EXPECT_EQ(report->journal_bytes_quarantined, 28u);
  EXPECT_FALSE(fs::exists(path));
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->empty());
}

TEST_F(ScrubTest, TornTailRecoveryCountsDroppedWorkInMetrics) {
  auto& dropped_records = obs::MetricsRegistry::Default().counter(
      "store.journal.dropped_records");
  auto& dropped_bytes =
      obs::MetricsRegistry::Default().counter("store.journal.dropped_bytes");
  const uint64_t records_before = dropped_records.value();
  const uint64_t bytes_before = dropped_bytes.value();

  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendQuery(0, "SELECT a FROM t0").ok());
  {
    std::ofstream out(fs::path(dir_) / "journal.0.dpe",
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00half", 8);  // a half-flushed append
  }
  auto recovery = store->RecoverJournal();
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_truncated);
  EXPECT_EQ(recovery->dropped_records, 1u);
  EXPECT_EQ(recovery->dropped_bytes, 8u);
  EXPECT_EQ(dropped_records.value(), records_before + 1);
  EXPECT_EQ(dropped_bytes.value(), bytes_before + 8);
}

}  // namespace
}  // namespace dpe::store
