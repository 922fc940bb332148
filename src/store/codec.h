// Versioned, checksummed binary codec for the persistence layer.
//
// Layout conventions: all integers are little-endian fixed-width; doubles
// are the IEEE-754 bit pattern carried in a u64 (round-trips are therefore
// bit-identical, including NaN payloads); strings are u32-length-prefixed
// byte runs. A `Writer` appends values to a growable buffer; a `Reader`
// consumes a byte view and returns `common::Status` on any malformed input
// — truncation, bad magic, checksum mismatch, out-of-range counts — never
// undefined behaviour. Decoders validate declared element counts against
// the bytes actually present *before* allocating, so a corrupted header
// cannot trigger a multi-gigabyte allocation.
//
// On top of the primitives sit the value codecs for the store's manifests
// (shard and generation) and two framing schemes:
//
//   whole-file:  [magic u32][version u32][payload_len u64][crc32 u32][payload]
//   record:      [payload_len u32][crc32 u32][payload]        (journals)
//
// The whole-file frame is checksummed once over the payload and written
// atomically (tmp + rename); the record frame is checksummed per record so
// an append-only journal detects torn tails. Each scheme has one reader:
// ReadFramedFileSalvage for whole files (ReadFramedFile is its strict
// wrapper) and ScanRecords for records. Neither reader decides what damage
// means — it reports what it found, and each caller applies its own policy
// (a strict load refuses any damage, crash recovery cuts a torn tail off,
// the scrubber keeps what survives). Every framed format has exactly one
// version, and readers accept only that version. Distances travel as runs
// of raw doubles (Writer::PutDoubles): the rows of a
// distance::DistanceTriangle, whether in a snapshot chunk, a journal row
// record or a shard file.

#ifndef DPE_STORE_CODEC_H_
#define DPE_STORE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dpe::store {

/// Format version of MANIFEST files.
inline constexpr uint32_t kFormatVersion = 1;

/// Format version of journal files: a row record carries its row as dense
/// raw doubles.
inline constexpr uint32_t kJournalFormatVersion = 2;

/// Format version of shard files: the manifest plus its range's triangle
/// rows as raw doubles.
inline constexpr uint32_t kShardFormatVersion = 3;

/// Format version of snapshot files: a CRC'd core (query log plus each
/// measure's name and row count) and CRC'd chunks of whole triangle rows,
/// so a byte flip quarantines one chunk instead of condemning the whole
/// file.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// File magics ("DPES"/"DPEJ"/"DPEH"/"DPEC" as little-endian u32).
inline constexpr uint32_t kSnapshotMagic = 0x53455044;  // "DPES"
inline constexpr uint32_t kJournalMagic = 0x4a455044;   // "DPEJ"
inline constexpr uint32_t kShardMagic = 0x48455044;     // "DPEH" (sHard)
inline constexpr uint32_t kManifestMagic = 0x43455044;  // "DPEC" (Compaction)

/// When the store calls fsync (EngineOptions::fsync_policy feeds this):
///   kNever        — no fsync anywhere; fastest, survives process crashes
///                   (the kernel still writes the data back) but a power
///                   loss can lose or tear recently written files.
///   kOnCheckpoint — fsync whole-file frames (snapshot / MANIFEST / shard)
///                   before the rename publishes them, but not journal
///                   appends. The default, and the long-standing behavior.
///   kAlways       — additionally fsync the journal after every append:
///                   an acknowledged AddQuery/row record survives power
///                   loss at the cost of an fsync per append.
enum class FsyncPolicy : uint8_t { kNever = 0, kOnCheckpoint = 1, kAlways = 2 };

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

// -- Primitives --------------------------------------------------------------

/// Appends fixed-width little-endian values to an internal buffer.
class Writer {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// IEEE-754 bit pattern in a u64: decoding returns the exact same double.
  void PutDouble(double v);
  /// Each value as PutDouble would write it, one block copy on
  /// little-endian hosts.
  void PutDoubles(std::span<const double> values);
  /// u32 length prefix + raw bytes (embedded NULs are preserved).
  void PutString(std::string_view s);
  /// Raw bytes with no prefix — for splicing pre-encoded sections.
  void PutRaw(std::string_view raw);

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Cursor over a byte view; every read is bounds-checked and returns a
/// ParseError Status instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<double> ReadDouble();
  /// `count` doubles written by PutDoubles; the count is checked against
  /// the bytes present before anything is allocated.
  Result<std::vector<double>> ReadDoubles(size_t count);
  Result<std::string> ReadString();
  /// `len` raw bytes (no length prefix) — the block-copy counterpart of
  /// Writer::PutRaw.
  Result<std::string> ReadBytes(size_t len);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// ParseError unless the whole input has been consumed.
  Status ExpectEnd() const;

 private:
  Status Need(size_t bytes, const char* what) const;

  std::string_view data_;
  size_t pos_ = 0;
};

// -- Value codecs ------------------------------------------------------------

/// Identity of one shard of a sharded matrix build: which logical matrix it
/// belongs to and which contiguous range of triangle rows it carries.
/// Travels inside the shard file (a "DPEH" frame, so the codec version and
/// checksum are validated on read) and is what the shard driver checks
/// against its plan before touching any cell. Rows are u32, as in journal
/// records and snapshot chunks, so a row's cell count cannot overflow.
struct ShardManifest {
  std::string matrix;       ///< logical matrix name, e.g. "token"
  uint32_t shard_index = 0; ///< this shard's position, < shard_count
  uint32_t shard_count = 0; ///< total shards in the build
  uint32_t n = 0;           ///< queries in the full matrix
  uint32_t row_begin = 0;   ///< first triangle row of this shard
  uint32_t row_end = 0;     ///< past-the-end row of this shard

  bool operator==(const ShardManifest&) const = default;
};

void EncodeShardManifest(const ShardManifest& manifest, Writer* w);
Result<ShardManifest> DecodeShardManifest(Reader* r);

/// The store's generation pointer: which snapshot generation is current and
/// how many frozen-journal bytes the compaction that published it folded
/// (informational — recovery needs only the generation). Travels as a tiny
/// "DPEC" frame (`MANIFEST.dpe`), so it is CRC'd and atomically replaced
/// like every other framed file; its rename commits a checkpoint, so an
/// absent manifest means no checkpoint.
struct CompactionManifest {
  uint64_t generation = 0;
  uint64_t journal_cut_offset = 0;  ///< frozen-journal bytes folded

  bool operator==(const CompactionManifest&) const = default;
};

void EncodeCompactionManifest(const CompactionManifest& manifest, Writer* w);
Result<CompactionManifest> DecodeCompactionManifest(Reader* r);

/// Empty when `manifest` is self-consistent; otherwise a description of
/// the defect (index >= count, rows outside [0, n]). The single definition
/// of manifest well-formedness — the write path (InvalidArgument) and the
/// decode path (ParseError) both wrap it.
std::string ShardManifestDefect(const ShardManifest& manifest);

// -- Framing -----------------------------------------------------------------

/// Replaces `path` with `head` followed by `body`, atomically: both go to a
/// tmp file unique to this process and write, which a rename then
/// publishes, so readers never observe a half-written file. The
/// store.frame.mid_write fault point fires between the two, with the head
/// flushed. With `sync` false the fsync-before-rename and directory fsync
/// are skipped (FsyncPolicy::kNever): crash-atomic against process death,
/// not against power loss. Every atomic replace in the store goes through
/// here: framed files below, and Scrub's journal rewrite.
Status WriteFileAtomic(const std::string& path, std::string_view head,
                       std::string_view body, bool sync);

/// Writes [magic][version][payload_len][crc32][payload] to `path` through
/// WriteFileAtomic, the 20-byte header as the head and the payload as the
/// body.
Status WriteFramedFile(const std::string& path, uint32_t magic,
                       std::string_view payload,
                       uint32_t version = kFormatVersion, bool sync = true);

/// fsync `path` (a file or a directory). Exposed for the journal's
/// FsyncPolicy::kAlways path.
Status SyncPath(const std::string& path);

/// The whole file at `path`, in one read; NotFound if it cannot be opened.
Result<std::string> ReadFileBytes(const std::string& path);

/// Reads a framed file back, validating magic, version (== `version`),
/// length and checksum. NotFound if the file does not exist; ParseError on
/// any corruption, including a frame of any other version.
Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint32_t version = kFormatVersion);

/// A framed payload read without the whole-payload CRC gate: `crc_ok`
/// reports whether it passed. The scrubber's entry point — formats with
/// per-section CRCs (snapshots) localize the damage themselves.
struct SalvagedFrame {
  std::string payload;
  bool crc_ok = true;
};

/// Like ReadFramedFile, but a payload-checksum mismatch is reported in
/// `crc_ok` instead of failing the read. Structural damage — missing file,
/// bad magic, another version, payload-length mismatch — still fails: a
/// frame whose geometry is destroyed cannot be salvaged, only rejected
/// (typed, never a wrong payload).
Result<SalvagedFrame> ReadFramedFileSalvage(const std::string& path,
                                            uint32_t magic, uint32_t version);

/// Appends one [payload_len][crc32][payload] record to `out`.
void AppendRecord(std::string_view payload, std::string* out);

/// What a record scan found: the records that pass their checksum, and an
/// account of the damage for the caller to judge.
struct RecordScan {
  std::vector<std::string> records;  ///< checksum-intact records, in order
  size_t valid_bytes = 0;        ///< intact prefix before any damage or tear
  uint64_t damaged_records = 0;  ///< framed records whose checksum failed
  uint64_t damaged_bytes = 0;    ///< bytes they occupy, headers included
  bool damage_followed = false;  ///< bytes follow a damaged record
  uint64_t torn_bytes = 0;  ///< the partial record ending the input, if any
};

/// Splits a concatenation of records back into payloads; never fails. A
/// record whose checksum fails but whose length still frames it is skipped
/// (the length resyncs the scan at the next boundary) and counted as
/// damaged; a header or payload cut off by the end of the input is the torn
/// tail. Only checksum-passing payloads are returned, so no caller ever
/// sees damaged bytes as a record. Crash recovery replays the records of a
/// scan whose damage is not followed by more bytes, then truncates the file
/// back to `valid_bytes`.
RecordScan ScanRecords(std::string_view data);

}  // namespace dpe::store

#endif  // DPE_STORE_CODEC_H_
