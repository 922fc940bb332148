#include "store/codec.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"

namespace dpe::store {

namespace {

// I/O counters on the process-default registry, resolved once. The codec is
// the choke point every persisted byte passes through, so these four
// counters account for the store layer's entire disk traffic.
obs::Counter& BytesWrittenCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_written");
  return c;
}
obs::Counter& BytesReadCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_read");
  return c;
}
obs::Counter& FsyncCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.fsyncs");
  return c;
}
obs::Counter& CrcValidationCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.crc_validations");
  return c;
}
obs::Counter& TornTailCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.torn_tail_drops");
  return c;
}

}  // namespace

/// fsync `path` (a file or a directory) so a rename/unlink ordering cannot
/// be undone by a power loss. Best-effort on filesystems without dirsync.
Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("store codec: cannot open " + path + " to sync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("store codec: fsync of " + path + " failed");
  }
  FsyncCounter().Increment();
  return Status::OK();
}

namespace {

constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

Status Corrupt(const std::string& what) {
  return Status::ParseError("store codec: " + what);
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  uint32_t c = 0xFFFFFFFFu;
  for (char ch : data) {
    c = kCrcTable[(c ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// -- Writer ------------------------------------------------------------------

void Writer::PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void Writer::PutU32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void Writer::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void Writer::PutDoubles(std::span<const double> values) {
  if constexpr (std::endian::native == std::endian::little) {
    buffer_.append(reinterpret_cast<const char*>(values.data()),
                   values.size() * sizeof(double));
  } else {
    for (double v : values) PutDouble(v);
  }
}

void Writer::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

void Writer::PutRaw(std::string_view raw) { buffer_.append(raw); }

// -- Reader ------------------------------------------------------------------

Status Reader::Need(size_t bytes, const char* what) const {
  if (remaining() < bytes) {
    return Corrupt(std::string("truncated input reading ") + what + " (need " +
                   std::to_string(bytes) + " bytes, have " +
                   std::to_string(remaining()) + ")");
  }
  return Status::OK();
}

Result<uint8_t> Reader::ReadU8() {
  DPE_RETURN_NOT_OK(Need(1, "u8"));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Reader::ReadU32() {
  DPE_RETURN_NOT_OK(Need(4, "u32"));
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<uint64_t> Reader::ReadU64() {
  DPE_RETURN_NOT_OK(Need(8, "u64"));
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
         << shift;
  }
  return v;
}

Result<double> Reader::ReadDouble() {
  DPE_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  return std::bit_cast<double>(bits);
}

Result<std::vector<double>> Reader::ReadDoubles(size_t count) {
  if (count > remaining() / sizeof(double)) {
    return Corrupt("double run of " + std::to_string(count) +
                   " values exceeds remaining input (" +
                   std::to_string(remaining()) + " bytes)");
  }
  std::vector<double> values(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(values.data(), data_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
  } else {
    for (double& v : values) {
      DPE_ASSIGN_OR_RETURN(v, ReadDouble());
    }
  }
  return values;
}

Result<std::string> Reader::ReadString() {
  DPE_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  return ReadBytes(len);
}

Result<std::string> Reader::ReadBytes(size_t len) {
  DPE_RETURN_NOT_OK(Need(len, "byte run"));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Status Reader::ExpectEnd() const {
  if (!AtEnd()) {
    return Corrupt(std::to_string(remaining()) + " trailing bytes");
  }
  return Status::OK();
}

// -- Value codecs ------------------------------------------------------------

void EncodeShardManifest(const ShardManifest& manifest, Writer* w) {
  w->PutString(manifest.matrix);
  w->PutU32(manifest.shard_index);
  w->PutU32(manifest.shard_count);
  w->PutU32(manifest.n);
  w->PutU32(manifest.row_begin);
  w->PutU32(manifest.row_end);
}

Result<ShardManifest> DecodeShardManifest(Reader* r) {
  ShardManifest manifest;
  DPE_ASSIGN_OR_RETURN(manifest.matrix, r->ReadString());
  DPE_ASSIGN_OR_RETURN(manifest.shard_index, r->ReadU32());
  DPE_ASSIGN_OR_RETURN(manifest.shard_count, r->ReadU32());
  DPE_ASSIGN_OR_RETURN(manifest.n, r->ReadU32());
  DPE_ASSIGN_OR_RETURN(manifest.row_begin, r->ReadU32());
  DPE_ASSIGN_OR_RETURN(manifest.row_end, r->ReadU32());
  if (std::string defect = ShardManifestDefect(manifest); !defect.empty()) {
    return Corrupt(defect);
  }
  return manifest;
}

void EncodeCompactionManifest(const CompactionManifest& manifest, Writer* w) {
  w->PutU64(manifest.generation);
  w->PutU64(manifest.journal_cut_offset);
}

Result<CompactionManifest> DecodeCompactionManifest(Reader* r) {
  CompactionManifest manifest;
  DPE_ASSIGN_OR_RETURN(manifest.generation, r->ReadU64());
  DPE_ASSIGN_OR_RETURN(manifest.journal_cut_offset, r->ReadU64());
  return manifest;
}

std::string ShardManifestDefect(const ShardManifest& manifest) {
  if (manifest.shard_count == 0 ||
      manifest.shard_index >= manifest.shard_count) {
    return "shard manifest index " + std::to_string(manifest.shard_index) +
           " of " + std::to_string(manifest.shard_count);
  }
  if (manifest.row_begin > manifest.row_end || manifest.row_end > manifest.n) {
    return "shard manifest rows [" + std::to_string(manifest.row_begin) +
           ", " + std::to_string(manifest.row_end) + ") are not inside [0, " +
           std::to_string(manifest.n) + "]";
  }
  return "";
}

// -- Framing -----------------------------------------------------------------

Status WriteFileAtomic(const std::string& path, std::string_view head,
                       std::string_view body, bool sync) {
  // The tmp name is unique per (process, write): two processes — or two
  // racing lease holders that both think they own a shard — writing the
  // same destination concurrently must not scribble over each other's
  // half-written tmp. The rename at the end stays last-writer-wins over
  // bit-identical content, which is exactly what idempotent shard exports
  // want.
  static std::atomic<uint64_t> tmp_serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("store codec: cannot open " + tmp +
                              " for writing");
    }
    out.write(head.data(), static_cast<std::streamsize>(head.size()));
    // Crash-injection point for the "die mid-write" fault mode: the head
    // (and only the head) is flushed to the tmp file first, so a death here
    // leaves a deterministic torn tmp on disk — which readers never see
    // (the rename below never happened) and stale-tmp cleanup can reclaim.
    if (common::FaultInjector::Global().armed()) {
      out.flush();
      common::FaultInjector::Global().Fire("store.frame.mid_write");
    }
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp, cleanup_ec);
      return Status::Internal("store codec: short write to " + tmp);
    }
    BytesWrittenCounter().Increment(head.size() + body.size());
  }
  // Durability order matters: the bytes must be on disk before the rename
  // publishes them, and the rename must be on disk before callers take
  // dependent actions (SaveCheckpoint deletes the journal right after its
  // snapshot write returns — a reordered power loss must not lose both).
  // FsyncPolicy::kNever opts out of both syncs: still atomic against
  // process death (the rename is), just not against power loss.
  if (sync) DPE_RETURN_NOT_OK(SyncPath(tmp));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::Internal("store codec: rename " + tmp + " -> " + path +
                            " failed");
  }
  if (!sync) return Status::OK();
  std::string parent = std::filesystem::path(path).parent_path().string();
  return SyncPath(parent.empty() ? "." : parent);
}

Status WriteFramedFile(const std::string& path, uint32_t magic,
                       std::string_view payload, uint32_t version,
                       bool sync) {
  Writer header;
  header.PutU32(magic);
  header.PutU32(version);
  header.PutU64(payload.size());
  header.PutU32(Crc32(payload));
  return WriteFileAtomic(path, header.buffer(), payload, sync);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("store codec: " + path + " does not exist");
  }
  std::string data(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!in) return Status::Internal("store codec: short read of " + path);
  return data;
}

Result<SalvagedFrame> ReadFramedFileSalvage(const std::string& path,
                                            uint32_t magic, uint32_t version) {
  DPE_ASSIGN_OR_RETURN(std::string data, ReadFileBytes(path));
  BytesReadCounter().Increment(data.size());
  if (data.empty()) {
    return Corrupt("zero-length frame file " + path +
                   " (torn or crashed export)");
  }
  Reader r(data);
  DPE_ASSIGN_OR_RETURN(uint32_t got_magic, r.ReadU32());
  if (got_magic != magic) {
    return Corrupt("bad magic in " + path);
  }
  DPE_ASSIGN_OR_RETURN(uint32_t got_version, r.ReadU32());
  if (got_version != version) {
    return Corrupt("unsupported format version " +
                   std::to_string(got_version) + " in " + path +
                   " (expected " + std::to_string(version) + ")");
  }
  DPE_ASSIGN_OR_RETURN(uint64_t payload_len, r.ReadU64());
  DPE_ASSIGN_OR_RETURN(uint32_t crc, r.ReadU32());
  if (payload_len != r.remaining()) {
    return Corrupt("payload length mismatch in " + path + " (declared " +
                   std::to_string(payload_len) + ", have " +
                   std::to_string(r.remaining()) + ")");
  }
  SalvagedFrame frame;
  data.erase(0, data.size() - payload_len);
  frame.payload = std::move(data);
  CrcValidationCounter().Increment();
  frame.crc_ok = Crc32(frame.payload) == crc;
  return frame;
}

Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint32_t version) {
  // Exists-but-empty gets its own message inside the salvage read (still
  // ParseError, the typed corruption code): a zero-length file is a torn
  // export or a crashed writer, and the shard merge path turns exactly
  // this into a discard-and-recompute instead of confusing it with "not
  // yet written" (which is NotFound).
  DPE_ASSIGN_OR_RETURN(SalvagedFrame frame,
                       ReadFramedFileSalvage(path, magic, version));
  if (!frame.crc_ok) {
    return Corrupt("checksum mismatch in " + path);
  }
  return std::move(frame.payload);
}

void AppendRecord(std::string_view payload, std::string* out) {
  Writer frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32(payload));
  out->append(frame.buffer());
  out->append(payload);
}

Result<RecordScan> ScanRecords(std::string_view data) {
  RecordScan scan;
  Reader r(data);
  while (!r.AtEnd()) {
    if (r.remaining() < 8) {  // half-written length/crc header
      scan.torn_tail = true;
      TornTailCounter().Increment();
      return scan;
    }
    DPE_ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
    DPE_ASSIGN_OR_RETURN(uint32_t crc, r.ReadU32());
    if (len > r.remaining()) {  // payload cut off by the crash
      scan.torn_tail = true;
      TornTailCounter().Increment();
      return scan;
    }
    DPE_ASSIGN_OR_RETURN(std::string payload, r.ReadBytes(len));
    CrcValidationCounter().Increment();
    if (Crc32(payload) != crc) {
      if (r.AtEnd()) {  // final record half-flushed: recoverable
        scan.torn_tail = true;
        TornTailCounter().Increment();
        return scan;
      }
      return Corrupt("record checksum mismatch mid-stream");
    }
    scan.records.push_back(std::move(payload));
    scan.valid_bytes = data.size() - r.remaining();
  }
  return scan;
}

SalvageScan ScanRecordsSalvage(std::string_view data) {
  SalvageScan scan;
  Reader r(data);
  while (!r.AtEnd()) {
    if (r.remaining() < 8) {  // half-written length/crc header
      scan.torn_tail = true;
      scan.torn_bytes = r.remaining();
      return scan;
    }
    // The header reads below cannot fail (>= 8 bytes checked above), and
    // ReadBytes cannot fail after the length check — but the Reader API is
    // fallible by contract, so treat an impossible failure as a tear.
    Result<uint32_t> len = r.ReadU32();
    Result<uint32_t> crc = r.ReadU32();
    if (!len.ok() || !crc.ok() || *len > r.remaining()) {
      // A length pointing past the end is either the genuine torn tail of a
      // killed appender or a corrupted length field; either way nothing
      // beyond this point can be framed, so the remainder is quarantined.
      scan.torn_tail = true;
      scan.torn_bytes = r.remaining() + 8;
      return scan;
    }
    Result<std::string> payload = r.ReadBytes(*len);
    if (!payload.ok()) {
      scan.torn_tail = true;
      scan.torn_bytes = r.remaining() + 8;
      return scan;
    }
    CrcValidationCounter().Increment();
    if (Crc32(*payload) != *crc) {
      // The length field still framed a full record, so the stream resyncs
      // at the next boundary: skip exactly this record. (A corrupted length
      // that lands mid-record desyncs the scan, but every subsequent
      // misframed "record" fails its CRC too — garbage is dropped, never
      // returned.)
      scan.quarantined_records += 1;
      scan.quarantined_bytes += 8 + *len;
      continue;
    }
    scan.records.push_back(std::move(*payload));
  }
  return scan;
}

}  // namespace dpe::store
