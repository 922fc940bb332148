// Store codec: primitive round-trips, property-style random runs of raw
// doubles (the payload of every snapshot chunk and journal row), and
// corruption tests — a truncated file, a bad magic, or any single flipped
// byte must surface as a Status error, never undefined behaviour.

#include "store/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/rng.h"

namespace dpe::store {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

TEST(CodecTest, PrimitiveRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutDouble(0.25);
  w.PutString("hello");
  w.PutString(std::string("nul\0byte", 8));
  w.PutString("");

  Reader r(w.buffer());
  auto u8 = r.ReadU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 0xAB);
  auto u32 = r.ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  auto u64 = r.ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  auto d = r.ReadDouble();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 0.25);
  auto s1 = r.ReadString();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, "hello");
  auto s2 = r.ReadString();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, std::string("nul\0byte", 8));
  auto s3 = r.ReadString();
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(*s3, "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(CodecTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (double v : values) {
    Writer w;
    w.PutDouble(v);
    Reader r(w.buffer());
    auto got = r.ReadDouble();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(v));
  }
}

TEST(CodecTest, ReadsOnEmptyInputAreErrorsNotUB) {
  Reader r("");
  EXPECT_EQ(r.ReadU8().status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ReadU64().status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ReadDouble().status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kParseError);
}

TEST(CodecTest, StringLengthBeyondInputIsError) {
  Writer w;
  w.PutU32(1000);  // declares 1000 bytes, provides 3
  w.PutRaw("abc");
  Reader r(w.buffer());
  EXPECT_EQ(r.ReadString().status().code(), StatusCode::kParseError);
}

TEST(CodecTest, Crc32KnownVector) {
  // The classic IEEE test vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(CodecTest, DoubleRunsRoundTripBitIdentically) {
  Rng rng(7);
  std::vector<double> values = {0.0, -0.0,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min(),
                                std::bit_cast<double>(0x7ff8dead0000beefULL)};
  for (size_t k = 0; k < 500; ++k) values.push_back(rng.NextDouble());
  Writer w;
  w.PutU32(7);
  w.PutDoubles(values);
  w.PutDouble(0.25);
  // PutDoubles writes exactly what PutDouble would, value by value.
  Writer one_by_one;
  one_by_one.PutU32(7);
  for (double v : values) one_by_one.PutDouble(v);
  one_by_one.PutDouble(0.25);
  EXPECT_EQ(w.buffer(), one_by_one.buffer());

  Reader r(w.buffer());
  ASSERT_TRUE(r.ReadU32().ok());
  auto decoded = r.ReadDoubles(values.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*decoded)[k]),
              std::bit_cast<uint64_t>(values[k]))
        << "value " << k;
  }
  auto tail = r.ReadDouble();
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, 0.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, DoubleRunLongerThanTheInputIsRejectedBeforeAllocating) {
  Writer w;
  w.PutDoubles(std::vector<double>{0.5, 0.75});
  Reader r(w.buffer());
  // ~2^61 doubles requested from a 16-byte input.
  EXPECT_EQ(r.ReadDoubles(size_t{1} << 61).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(r.ReadDoubles(3).status().code(), StatusCode::kParseError);
  auto two = r.ReadDoubles(2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, (std::vector<double>{0.5, 0.75}));
}

TEST(CodecTest, FramedFileRoundTrip) {
  const std::string path = TempPath("codec_frame.dpe");
  const std::string payload = "some payload bytes \x01\x02\x03";
  ASSERT_TRUE(WriteFramedFile(path, kSnapshotMagic, payload).ok());
  auto read = ReadFramedFile(path, kSnapshotMagic);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
}

TEST(CodecTest, MissingFramedFileIsNotFound) {
  auto read = ReadFramedFile(TempPath("codec_nonexistent.dpe"), kSnapshotMagic);
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CodecTest, WrongMagicIsError) {
  const std::string path = TempPath("codec_magic.dpe");
  ASSERT_TRUE(WriteFramedFile(path, kSnapshotMagic, "payload").ok());
  EXPECT_EQ(ReadFramedFile(path, kJournalMagic).status().code(),
            StatusCode::kParseError);
}

TEST(CodecTest, TruncatedFramedFileIsError) {
  const std::string path = TempPath("codec_trunc.dpe");
  ASSERT_TRUE(WriteFramedFile(path, kSnapshotMagic, "0123456789").ok());
  // Chop k bytes off the end for every possible k > 0.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  for (size_t keep = 0; keep < data.size(); ++keep) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto read = ReadFramedFile(path, kSnapshotMagic);
    EXPECT_FALSE(read.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(CodecTest, EverySingleByteFlipIsDetected) {
  const std::string path = TempPath("codec_flip.dpe");
  Writer payload;
  payload.PutString("snapshot-ish payload");
  payload.PutU64(42);
  ASSERT_TRUE(WriteFramedFile(path, kSnapshotMagic, payload.buffer()).ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  for (size_t pos = 0; pos < data.size(); ++pos) {
    std::string corrupted = data;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
    out.close();
    auto read = ReadFramedFile(path, kSnapshotMagic);
    EXPECT_FALSE(read.ok()) << "flip at byte " << pos << " accepted";
  }
}

TEST(CodecTest, RecordFramingRoundTripAndTornTail) {
  std::string log;
  AppendRecord("first", &log);
  AppendRecord("", &log);
  AppendRecord("third record", &log);
  const RecordScan scan = ScanRecords(log);
  EXPECT_EQ(scan.torn_bytes, 0u);
  EXPECT_EQ(scan.valid_bytes, log.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0], "first");
  EXPECT_EQ(scan.records[1], "");
  EXPECT_EQ(scan.records[2], "third record");

  // A torn tail (partial append before a crash) is reported as one for
  // every possible cut point inside the last record, and the records before
  // it survive.
  const size_t before_third = log.size() - (8 + 12);
  for (size_t cut = before_third + 1; cut < log.size(); ++cut) {
    const RecordScan torn = ScanRecords(std::string_view(log).substr(0, cut));
    EXPECT_GT(torn.torn_bytes, 0u) << "cut at " << cut;
    EXPECT_EQ(torn.valid_bytes, before_third) << "cut at " << cut;
    ASSERT_EQ(torn.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(torn.records[0], "first");
    EXPECT_EQ(torn.records[1], "");
  }

  // Flipping any payload or header byte of a record is detected too: the
  // scan reports a damaged record or a torn tail, or comes back short.
  for (size_t pos = 0; pos < log.size(); ++pos) {
    std::string corrupted = log;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x01);
    const RecordScan flipped = ScanRecords(corrupted);
    EXPECT_FALSE(flipped.damaged_records == 0 && flipped.torn_bytes == 0 &&
                 flipped.records.size() == 3)
        << "flip at " << pos;
  }
}

}  // namespace
}  // namespace dpe::store
