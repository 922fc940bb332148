// MatrixStore: snapshot + journal round-trips, reopen persistence,
// truncation, shard files, and corruption handling.

#include "store/matrix_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"

namespace dpe::store {
namespace {

namespace fs = std::filesystem;

class MatrixStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("matrix_store_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

/// A triangle of `rows` rows whose cells are distinct: d(c, r) = r + c / 16.
distance::DistanceTriangle Triangle(size_t rows) {
  distance::DistanceTriangle t;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> row(r);
    for (size_t c = 0; c < r; ++c) row[c] = r + c / 16.0;
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

Snapshot MakeSnapshot() {
  Snapshot s;
  s.queries = {"SELECT a FROM t WHERE a = 1;", "SELECT b FROM t WHERE b = 2;"};
  s.triangles["token"] = Triangle(2);
  s.triangles["structure"] = Triangle(1);
  return s;
}

TEST_F(MatrixStoreTest, OpenCreatesDirectory) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(fs::is_directory(dir_));
  EXPECT_FALSE(store->HasSnapshot());
  EXPECT_EQ(store->ReadSnapshot().status().code(), StatusCode::kNotFound);
  auto journal = store->ReadJournal();
  ASSERT_TRUE(journal.ok());
  EXPECT_TRUE(journal->empty());
}

TEST_F(MatrixStoreTest, OpenExistingNeverCreates) {
  EXPECT_EQ(MatrixStore::OpenExisting(dir_).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(fs::exists(dir_));
  ASSERT_TRUE(MatrixStore::Open(dir_).ok());
  EXPECT_TRUE(MatrixStore::OpenExisting(dir_).ok());
}

TEST_F(MatrixStoreTest, OpenFailsOnFilePath) {
  std::ofstream out(dir_);  // occupy the path with a regular file
  out << "not a directory";
  out.close();
  auto store = MatrixStore::Open(dir_);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MatrixStoreTest, OpenErrorSurfacesOsErrorText) {
  // A path *under* a regular file cannot be created; the Status must carry
  // the OS error text so operators can tell permission problems from typos.
  std::ofstream out(dir_);
  out << "file";
  out.close();
  auto store = MatrixStore::Open((fs::path(dir_) / "sub").string());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  // ec.message() is platform-worded; any non-empty suffix after the path
  // counts. "cannot create directory <path>: <os text>".
  const std::string& message = store.status().message();
  const size_t colon = message.rfind(": ");
  ASSERT_NE(colon, std::string::npos) << message;
  EXPECT_GT(message.size(), colon + 2) << message;
}

TEST_F(MatrixStoreTest, SnapshotRoundTrip) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const Snapshot written = MakeSnapshot();
  ASSERT_TRUE(store->WriteSnapshot(written).ok());
  EXPECT_TRUE(store->HasSnapshot());

  auto read = store->ReadSnapshot();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->queries, written.queries);
  EXPECT_EQ(read->triangles, written.triangles);
}

TEST_F(MatrixStoreTest, LargeTrianglesRoundTripAcrossManyChunks) {
  // 200 rows hold 19900 cells: several ~4096-cell chunks per measure, and
  // the measures' chunks must each reassemble in row order.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Snapshot written;
  for (size_t q = 0; q < 200; ++q) {
    written.queries.push_back("SELECT c" + std::to_string(q) + " FROM t;");
  }
  written.triangles["token"] = Triangle(200);
  written.triangles["structure"] = Triangle(150);
  written.triangles["result"] = Triangle(0);
  ASSERT_TRUE(store->WriteSnapshot(written).ok());
  auto read = store->ReadSnapshot();
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->queries, written.queries);
  EXPECT_EQ(read->triangles, written.triangles);
  // Raw doubles: about 8 bytes per cell, not a tuple per cell.
  const auto bytes = fs::file_size(fs::path(dir_) / "snapshot.0.dpe");
  EXPECT_LT(bytes, (19900 + 11175) * 8 + 8 * 1024);
}

TEST_F(MatrixStoreTest, MeasureDeclaringMoreRowsThanQueriesIsParseError) {
  // CRC-valid, but a triangle row without its query is nothing a restore
  // could ever index: the strict read refuses it and a scrub cannot salvage
  // the core.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Snapshot bad = MakeSnapshot();
  bad.triangles["token"] = Triangle(3);  // 3 rows over 2 queries
  ASSERT_TRUE(store->WriteSnapshot(bad).ok());
  EXPECT_EQ(store->ReadSnapshot().status().code(), StatusCode::kParseError);
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->snapshot_unreadable);
}

TEST_F(MatrixStoreTest, SnapshotOverwriteReplacesAtomically) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
  Snapshot second;
  second.queries = {"SELECT c FROM u WHERE c < 9;"};
  ASSERT_TRUE(store->WriteSnapshot(second).ok());
  auto read = store->ReadSnapshot();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->queries, second.queries);
  EXPECT_TRUE(read->triangles.empty());
}

TEST_F(MatrixStoreTest, JournalAppendReadTruncate) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendQuery(2, "SELECT a FROM t WHERE a = 3;").ok());
  ASSERT_TRUE(store->AppendRow("token", 2, std::vector<double>{0.1, 0.9}).ok());
  ASSERT_TRUE(store->AppendQuery(3, "SELECT b FROM t WHERE b = 4;").ok());

  auto records = store->ReadJournal();
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].kind, JournalRecord::Kind::kQueryAppended);
  EXPECT_EQ((*records)[0].index, 2u);
  EXPECT_EQ((*records)[0].sql, "SELECT a FROM t WHERE a = 3;");
  EXPECT_EQ((*records)[1].kind, JournalRecord::Kind::kRowComputed);
  EXPECT_EQ((*records)[1].measure, "token");
  EXPECT_EQ((*records)[1].row, 2u);
  EXPECT_EQ((*records)[1].values, (std::vector<double>{0.1, 0.9}));
  EXPECT_EQ((*records)[2].index, 3u);

  ASSERT_TRUE(store->TruncateJournal().ok());
  auto after = store->ReadJournal();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST_F(MatrixStoreTest, JournalSurvivesReopen) {
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
    ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.75}).ok());
  }
  auto reopened = MatrixStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->HasSnapshot());
  auto records = reopened->ReadJournal();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].measure, "token");
}

TEST_F(MatrixStoreTest, CorruptJournalTailIsParseError) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.75}).ok());
  // Simulate a torn append: write half a record's worth of garbage.
  std::ofstream out(fs::path(dir_) / "journal.0.dpe",
                    std::ios::binary | std::ios::app);
  out.write("\x10\x00\x00\x00garbage", 11);
  out.close();
  EXPECT_EQ(store->ReadJournal().status().code(), StatusCode::kParseError);
}

TEST_F(MatrixStoreTest, RecoverJournalDropsTornTailAndRepairsFile) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.75}).ok());
  ASSERT_TRUE(store->AppendQuery(2, "SELECT a FROM t WHERE a = 1;").ok());
  const auto intact_size = fs::file_size(fs::path(dir_) / "journal.0.dpe");

  // Crash mid-append: any cut point inside a third record must recover to
  // exactly the two intact records.
  ASSERT_TRUE(store->AppendRow("token", 2, std::vector<double>{0.1, 0.2}).ok());
  std::ifstream in(fs::path(dir_) / "journal.0.dpe", std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut = intact_size + 1; cut < full.size(); ++cut) {
    std::ofstream out(fs::path(dir_) / "journal.0.dpe",
                      std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto recovered = store->RecoverJournal();
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut << ": "
                                << recovered.status();
    ASSERT_EQ(recovered->records.size(), 2u) << "cut at " << cut;
    // The recovery accounts for the tear: one partial record, and exactly
    // the bytes between the cut and the intact prefix.
    EXPECT_TRUE(recovered->tail_truncated) << "cut at " << cut;
    EXPECT_EQ(recovered->dropped_records, 1u) << "cut at " << cut;
    EXPECT_EQ(recovered->dropped_bytes, cut - intact_size) << "cut at " << cut;
    EXPECT_EQ(fs::file_size(fs::path(dir_) / "journal.0.dpe"), intact_size);
    // The repaired journal is fully valid again for the strict reader and
    // for further appends.
    auto strict = store->ReadJournal();
    ASSERT_TRUE(strict.ok());
    EXPECT_EQ(strict->size(), 2u);
  }
  ASSERT_TRUE(
      store->AppendRow("token", 3, std::vector<double>{0.5, 0.6, 0.7}).ok());
  auto after_append = store->ReadJournal();
  ASSERT_TRUE(after_append.ok());
  EXPECT_EQ(after_append->size(), 3u);

  // An intact journal recovers with nothing dropped and nothing reported.
  auto clean = store->RecoverJournal();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->records.size(), 3u);
  EXPECT_FALSE(clean->tail_truncated);
  EXPECT_EQ(clean->dropped_records, 0u);
  EXPECT_EQ(clean->dropped_bytes, 0u);
}

TEST_F(MatrixStoreTest, RecoverJournalHandlesHeaderStub) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  // A crash inside the very first append can leave fewer than the 8 header
  // bytes on disk. Strict read errors; recovery clears the stub.
  std::ofstream out(fs::path(dir_) / "journal.0.dpe", std::ios::binary);
  out.write("\x44\x50\x45", 3);
  out.close();
  EXPECT_EQ(store->ReadJournal().status().code(), StatusCode::kParseError);
  auto recovered = store->RecoverJournal();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->records.empty());
  EXPECT_TRUE(recovered->tail_truncated);
  EXPECT_EQ(recovered->dropped_records, 1u);  // the in-flight append
  EXPECT_EQ(recovered->dropped_bytes, 3u);
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "journal.0.dpe"));
  // Appends start a clean journal afterwards.
  ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.5}).ok());
  auto after = store->ReadJournal();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
}

TEST_F(MatrixStoreTest, FlippedSnapshotByteIsParseError) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
  const std::string path = (fs::path(dir_) / "snapshot.0.dpe").string();
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x20);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  EXPECT_FALSE(store->ReadSnapshot().ok());
}

TEST_F(MatrixStoreTest, SnapshotFilesWithoutManifestAreNoCheckpoint) {
  // The MANIFEST commits a checkpoint: a snapshot file without one (a save
  // that died before its commit) is not a checkpoint to any reader.
  {
    auto store = MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
  }
  ASSERT_TRUE(fs::remove(fs::path(dir_) / "MANIFEST.dpe"));
  auto store = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->HasSnapshot());
  EXPECT_EQ(store->ReadSnapshot().status().code(), StatusCode::kNotFound);
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->snapshot_chunks_checked, 0u);
  EXPECT_FALSE(report->snapshot_unreadable);
  EXPECT_FALSE(report->snapshot_rewritten);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "snapshot.0.dpe"));
}

TEST_F(MatrixStoreTest, StrayOversizedGenerationFileIsLeftAlone) {
  // A stray file whose generation overflows u64 is "not a generation
  // file" on every directory scan — the sweep after each checkpoint and
  // the corrupt-MANIFEST fallback — instead of aborting the process.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const std::vector<fs::path> strays = {
      fs::path(dir_) / "snapshot.99999999999999999999999.dpe",
      fs::path(dir_) / "journal.99999999999999999999999.dpe"};
  for (const fs::path& stray : strays) std::ofstream(stray) << "stray";
  ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
  ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());

  std::ofstream(fs::path(dir_) / "MANIFEST.dpe", std::ios::trunc) << "bad";
  auto reopened = MatrixStore::OpenExisting(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->generation(), 0u);
  EXPECT_TRUE(reopened->ReadSnapshot().ok());
  for (const fs::path& stray : strays) {
    EXPECT_TRUE(fs::exists(stray)) << stray;
  }
}

ShardManifest MakeManifest(uint32_t index, uint32_t count, uint32_t n,
                           uint32_t row_begin, uint32_t row_end) {
  ShardManifest m;
  m.matrix = "token";
  m.shard_index = index;
  m.shard_count = count;
  m.n = n;
  m.row_begin = row_begin;  // not checked against a plan here; the driver
  m.row_end = row_end;      // does
  return m;
}

TEST_F(MatrixStoreTest, ShardRoundTrip) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  Rng rng(11);
  distance::DistanceMatrix partial(7);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = i + 1; j < 7; ++j) {
      partial.set(i, j, rng.NextDouble());
    }
  }
  const ShardManifest manifest = MakeManifest(1, 3, 9, 3, 7);
  ASSERT_TRUE(store->WriteShard(manifest, partial).ok());

  auto read = store->ReadShard("token", 1, 3);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->manifest, manifest);
  // The payload is triangle rows [3, 7), exactly as a triangle lays them
  // out.
  distance::DistanceTriangle triangle;
  triangle.ExtendFrom(partial);
  const std::span<const double> rows = triangle.Rows(3, 7);
  EXPECT_EQ(read->cells, std::vector<double>(rows.begin(), rows.end()));
  EXPECT_EQ(read->cells.size(), distance::DistanceTriangle::CellCount(7) -
                                    distance::DistanceTriangle::CellCount(3));

  // Other coordinates are distinct files.
  EXPECT_EQ(store->ReadShard("token", 0, 3).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->ReadShard("token", 1, 4).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->ReadShard("structure", 1, 3).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MatrixStoreTest, ShardFileCarriesOnlyItsRows) {
  // A shard owning rows [0, 8) of a 32-query matrix (28 cells) must not pay
  // for the full n(n-1)/2 triangle.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  distance::DistanceMatrix partial(8);
  ASSERT_TRUE(store->WriteShard(MakeManifest(0, 4, 32, 0, 8), partial).ok());
  const auto size = fs::file_size(fs::path(dir_) / "shard-token-0of4.dpe");
  const uintmax_t dense_payload = 32 * 31 / 2 * 8;
  EXPECT_LT(size, dense_payload / 4);
  auto read = store->ReadShard("token", 0, 4);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->cells.size(), 28u);
}

TEST_F(MatrixStoreTest, OldFormatVersionsAreParseErrors) {
  // Every framed format has exactly one version. Frames under the versions
  // earlier builds wrote — version-1 (dense) and version-2 (tile-ordered)
  // shards, a version-2 snapshot and a version-1 journal — must fail typed,
  // never decode, even around a payload the current version would accept.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store
                  ->WriteShard(MakeManifest(1, 3, 9, 3, 9),
                               distance::DistanceMatrix(9))
                  .ok());
  ASSERT_TRUE(store->ReadShard("token", 1, 3).ok());
  const std::string shard_path =
      (fs::path(dir_) / "shard-token-1of3.dpe").string();
  auto shard =
      ReadFramedFile(shard_path, kShardMagic, kShardFormatVersion);
  ASSERT_TRUE(shard.ok());
  for (uint32_t version : {1u, 2u}) {
    ASSERT_TRUE(
        WriteFramedFile(shard_path, kShardMagic, *shard, version).ok());
    EXPECT_EQ(store->ReadShard("token", 1, 3).status().code(),
              StatusCode::kParseError)
        << "shard version " << version;
  }

  ASSERT_TRUE(store->WriteSnapshot(MakeSnapshot()).ok());
  const std::string snapshot_path =
      (fs::path(dir_) / "snapshot.0.dpe").string();
  auto payload = ReadFramedFile(snapshot_path, kSnapshotMagic,
                                kSnapshotFormatVersion);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(WriteFramedFile(snapshot_path, kSnapshotMagic, *payload,
                              /*version=*/2)
                  .ok());
  EXPECT_EQ(store->ReadSnapshot().status().code(), StatusCode::kParseError);

  Writer journal;
  journal.PutU32(kJournalMagic);
  journal.PutU32(1);
  std::ofstream(fs::path(dir_) / "journal.0.dpe", std::ios::binary)
      << journal.buffer();
  EXPECT_EQ(store->ReadJournal().status().code(), StatusCode::kParseError);

  auto report = store->Scrub();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->snapshot_unreadable);
  EXPECT_TRUE(report->journal_rewritten);  // quarantined wholesale
}

TEST_F(MatrixStoreTest, ShardPayloadDisagreeingWithItsRowsIsParseError) {
  // A CRC-valid frame whose payload is not exactly the cells its manifest's
  // rows hold must be rejected before any cell is allocated — including
  // rows whose cell count is far beyond any real file.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  const struct {
    const char* what;
    ShardManifest manifest;
    size_t doubles;
  } cases[] = {
      {"too few cells", MakeManifest(0, 1, 9, 0, 9), 3},  // rows hold 36
      {"trailing cell", MakeManifest(0, 1, 9, 0, 9), 37},
      {"2^32 - 1 rows", MakeManifest(0, 1, kHuge, 0, kHuge), 3},
      {"the last row of 2^32 - 1", MakeManifest(0, 1, kHuge, kHuge - 1, kHuge),
       3},
  };
  const std::string path = (fs::path(dir_) / "shard-token-0of1.dpe").string();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    Writer w;
    EncodeShardManifest(c.manifest, &w);
    for (size_t k = 0; k < c.doubles; ++k) w.PutDouble(0.5);
    ASSERT_TRUE(WriteFramedFile(path, kShardMagic, w.buffer(),
                                kShardFormatVersion)
                    .ok());
    auto read = store->ReadShard("token", 0, 1);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kParseError);
  }
}

TEST_F(MatrixStoreTest, FsyncPolicyRoundTripsUnderEveryPolicy) {
  // The knob trades durability for latency; the bytes written must be
  // identical either way, so every policy round-trips every artifact.
  for (FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kOnCheckpoint,
                             FsyncPolicy::kAlways}) {
    const std::string dir =
        dir_ + "-fsync-" + std::to_string(static_cast<int>(policy));
    auto store = MatrixStore::Open(dir);
    ASSERT_TRUE(store.ok());
    store->set_fsync_policy(policy);
    EXPECT_EQ(store->fsync_policy(), policy);

    Snapshot snapshot;
    snapshot.queries = {"SELECT a FROM t;"};
    snapshot.triangles["token"] = Triangle(1);
    ASSERT_TRUE(store->WriteSnapshot(snapshot).ok());
    ASSERT_TRUE(store->AppendQuery(1, "SELECT b FROM t;").ok());
    ASSERT_TRUE(store->AppendRow("token", 1, std::vector<double>{0.5}).ok());

    auto back = store->ReadSnapshot();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->queries, snapshot.queries);
    EXPECT_EQ(back->triangles, snapshot.triangles);
    auto journal = store->ReadJournal();
    ASSERT_TRUE(journal.ok()) << journal.status();
    EXPECT_EQ(journal->size(), 2u);
    fs::remove_all(dir);
  }
}

TEST_F(MatrixStoreTest, WriteShardRejectsInconsistentManifests) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  distance::DistanceMatrix partial(4);

  const struct {
    const char* what;
    ShardManifest manifest;
  } cases[] = {
      {"index >= count", MakeManifest(2, 2, 4, 0, 2)},
      {"inverted rows", MakeManifest(0, 2, 4, 3, 1)},
      {"rows past n", MakeManifest(0, 2, 4, 2, 5)},
      {"partial shorter than the rows", MakeManifest(0, 2, 7, 0, 7)},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(store->WriteShard(c.manifest, partial).code(),
              StatusCode::kInvalidArgument)
        << c.what;
  }
}

TEST_F(MatrixStoreTest, FlippedShardByteIsParseError) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  distance::DistanceMatrix partial(6);
  partial.set(0, 1, 0.5);
  ASSERT_TRUE(store->WriteShard(MakeManifest(0, 1, 6, 0, 6), partial).ok());

  const std::string path = (fs::path(dir_) / "shard-token-0of1.dpe").string();
  ASSERT_TRUE(fs::exists(path));
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Flip every byte position in turn: all must surface as a typed error.
  for (size_t pos = 0; pos < data.size(); ++pos) {
    std::string flipped = data;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    out.close();
    auto read = store->ReadShard("token", 0, 1);
    ASSERT_FALSE(read.ok()) << "flipped byte " << pos;
    EXPECT_EQ(read.status().code(), StatusCode::kParseError)
        << "flipped byte " << pos;
  }
}

TEST_F(MatrixStoreTest, ShardFileRenamedToOtherCoordinatesIsParseError) {
  // A shard file moved (or copied) under another shard's name must be
  // rejected by the manifest identity check, not silently merged.
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  distance::DistanceMatrix partial(4);
  ASSERT_TRUE(store->WriteShard(MakeManifest(0, 2, 4, 0, 3), partial).ok());
  fs::rename(fs::path(dir_) / "shard-token-0of2.dpe",
             fs::path(dir_) / "shard-token-1of2.dpe");
  auto read = store->ReadShard("token", 1, 2);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace dpe::store
