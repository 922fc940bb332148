// Kill-at-every-byte sweeps: a writer killed after any byte prefix of a
// shard frame or a lease file must leave state every reader handles with a
// typed Status (or protocol-neutral behavior), never UB, a crash, or a
// silently wrong merge. This is the exhaustive version of what
// bench_multihost's scripted die-mid-frame-write does probabilistically.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/driver.h"
#include "store/matrix_store.h"

namespace dpe::store {
namespace {

namespace fs = std::filesystem;

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(size));
  ASSERT_TRUE(out.good()) << path;
}

class CorruptionSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("corruption_sweep_" + std::string(::testing::UnitTest::GetInstance()
                                                   ->current_test_info()
                                                   ->name())))
               .string();
    fs::remove_all(dir_);
  }

  // A small but real shard file: every row of a 6x6 build.
  ShardManifest WriteWholeMatrixShard(MatrixStore& store) {
    ShardManifest manifest;
    manifest.matrix = "token";
    manifest.shard_index = 0;
    manifest.shard_count = 1;
    manifest.n = 6;
    manifest.row_begin = 0;
    manifest.row_end = 6;
    distance::DistanceMatrix partial(6);
    for (size_t i = 0; i < 6; ++i) {
      for (size_t j = i + 1; j < 6; ++j) {
        partial.set(i, j, 0.25 * static_cast<double>(i * 6 + j));
      }
    }
    EXPECT_TRUE(store.WriteShard(manifest, partial).ok());
    return manifest;
  }

  std::string dir_;
};

TEST_F(CorruptionSweepTest, ShardFrameTruncatedAtEveryByteIsATypedError) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  WriteWholeMatrixShard(*store);

  const std::string path = dir_ + "/shard-token-0of1.dpe";
  const std::vector<char> whole = ReadAllBytes(path);
  ASSERT_GT(whole.size(), 0u);

  // Every proper prefix — the file a writer killed after byte L leaves
  // behind (had the export not gone through a tmp; foreign writers and torn
  // filesystems can still produce this).
  for (size_t len = 0; len < whole.size(); ++len) {
    WriteBytes(path, whole.data(), len);
    auto shard = store->ReadShard("token", 0, 1);
    ASSERT_FALSE(shard.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(shard.status().code(), StatusCode::kParseError)
        << "prefix " << len << ": " << shard.status();
  }

  // And the intact file still round-trips after the sweep.
  WriteBytes(path, whole.data(), whole.size());
  auto shard = store->ReadShard("token", 0, 1);
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(shard->manifest.row_end, 6u);
  EXPECT_EQ(shard->cells.size(), 15u);
}

TEST_F(CorruptionSweepTest, LeaseFileTruncatedAtEveryByteKeepsTheProtocol) {
  fs::create_directories(dir_);
  engine::LeaseBoard::Options options;
  options.dir = dir_;
  options.matrix = "token";
  options.shard_count = 1;
  options.ttl_ms = 60000;
  options.host = "holder";
  auto holder = engine::LeaseBoard::Open(options);
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(*(*holder)->TryAcquire(0));

  options.host = "rival";
  auto rival = engine::LeaseBoard::Open(options);
  ASSERT_TRUE(rival.ok());

  const std::string path = (*holder)->LeasePath(0);
  const std::vector<char> whole = ReadAllBytes(path);
  ASSERT_GT(whole.size(), 0u);

  for (size_t len = 0; len < whole.size(); ++len) {
    WriteBytes(path, whole.data(), len);  // torn heartbeat rewrite
    // Exclusion holds: the file exists and its mtime is fresh, so content
    // damage must not let a rival in.
    auto acquired = (*rival)->TryAcquire(0);
    ASSERT_TRUE(acquired.ok()) << acquired.status();
    EXPECT_FALSE(*acquired) << "rival stole through a torn lease, len " << len;
    // Observability degrades gracefully: the row is held+fresh, identity
    // fields fall back to defaults instead of erroring.
    auto table = (*rival)->Snapshot();
    ASSERT_TRUE(table.ok()) << table.status();
    ASSERT_EQ(table->size(), 1u);
    EXPECT_TRUE((*table)[0].held);
    EXPECT_TRUE((*table)[0].fresh);
  }

  // The real holder can still renew and release through the damage.
  EXPECT_TRUE((*holder)->Renew(0).ok());
  EXPECT_TRUE((*holder)->Release(0).ok());
  EXPECT_TRUE(*(*rival)->TryAcquire(0)) << "released lease is takeable again";
}

TEST_F(CorruptionSweepTest, ResidualTmpFilesAreInvisibleToReaders) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  WriteWholeMatrixShard(*store);

  // Torn tmp files a killed exporter leaves behind: one next to a real
  // shard, one for a shard that never landed at all.
  WriteBytes(dir_ + "/shard-token-0of1.dpe.tmp.4242.0", "garbage", 7);
  WriteBytes(dir_ + "/shard-token-1of2.dpe.tmp.4242.1", "garbage", 7);

  EXPECT_TRUE(store->HasShard("token", 0, 1));
  EXPECT_FALSE(store->HasShard("token", 1, 2))
      << "a torn tmp must not count as a landed shard";
  auto shard = store->ReadShard("token", 0, 1);
  ASSERT_TRUE(shard.ok()) << shard.status();
  EXPECT_EQ(store->ReadShard("token", 1, 2).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CorruptionSweepTest, ZeroLengthShardFrameIsATornExportError) {
  auto store = MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  fs::create_directories(dir_);
  WriteBytes(dir_ + "/shard-token-0of1.dpe", "", 0);

  auto shard = store->ReadShard("token", 0, 1);
  ASSERT_FALSE(shard.ok());
  EXPECT_EQ(shard.status().code(), StatusCode::kParseError);
  EXPECT_NE(std::string(shard.status().message()).find("zero-length"),
            std::string::npos)
      << shard.status();
}

}  // namespace
}  // namespace dpe::store
