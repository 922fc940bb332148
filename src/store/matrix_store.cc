#include "store/matrix_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/fault.h"
#include "obs/metrics.h"

namespace dpe::store {

namespace fs = std::filesystem;

namespace {

Status Corrupt(const std::string& what) {
  return Status::ParseError("matrix store: " + what);
}

// Journal traffic on the process-default registry. The framed-file paths
// (snapshots, manifests, shards) are counted inside the codec; the journal
// appends raw frames itself, so its bytes are counted here.
obs::Counter& JournalRecordsAppended() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal_records_appended");
  return c;
}
obs::Counter& JournalBytesWritten() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_written");
  return c;
}
obs::Counter& JournalBytesRead() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.bytes_read");
  return c;
}
obs::Counter& JournalTornTailRecoveries() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal_tail_recoveries");
  return c;
}
// Torn-tail tolerance made observable (not silent): every record and byte a
// journal recovery drops is counted here, so a fleet dashboard can tell
// clean restarts from crash-looping hosts that shed work on every boot.
obs::Counter& JournalDroppedRecords() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal.dropped_records");
  return c;
}
obs::Counter& JournalDroppedBytes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.journal.dropped_bytes");
  return c;
}
obs::Counter& ScrubRuns() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.runs");
  return c;
}
obs::Counter& ScrubCellsQuarantined() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.cells_quarantined");
  return c;
}
obs::Counter& ScrubJournalRecordsQuarantined() {
  static obs::Counter& c = obs::MetricsRegistry::Default().counter(
      "store.scrub.journal_records_quarantined");
  return c;
}
obs::Counter& ScrubRewrites() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.scrub.rewrites");
  return c;
}
obs::Counter& CompactionPublishes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Default().counter("store.compaction.publishes");
  return c;
}

void EncodeJournalRecord(const JournalRecord& record, Writer* w) {
  w->PutU8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case JournalRecord::Kind::kQueryAppended:
      w->PutU32(record.index);
      w->PutString(record.sql);
      break;
    case JournalRecord::Kind::kRowComputed:
      w->PutString(record.measure);
      w->PutU32(record.row);
      w->PutU32(static_cast<uint32_t>(record.values.size()));
      w->PutDoubles(record.values);
      break;
  }
}

Result<JournalRecord> DecodeJournalRecord(std::string_view payload) {
  Reader r(payload);
  JournalRecord record;
  DPE_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  switch (static_cast<JournalRecord::Kind>(kind)) {
    case JournalRecord::Kind::kQueryAppended: {
      record.kind = JournalRecord::Kind::kQueryAppended;
      DPE_ASSIGN_OR_RETURN(record.index, r.ReadU32());
      DPE_ASSIGN_OR_RETURN(record.sql, r.ReadString());
      break;
    }
    case JournalRecord::Kind::kRowComputed: {
      record.kind = JournalRecord::Kind::kRowComputed;
      DPE_ASSIGN_OR_RETURN(record.measure, r.ReadString());
      DPE_ASSIGN_OR_RETURN(record.row, r.ReadU32());
      DPE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      if (count != record.row) {
        return Corrupt("row record " + std::to_string(record.row) +
                       " carries " + std::to_string(count) +
                       " values (a row holds one per lower row)");
      }
      DPE_ASSIGN_OR_RETURN(record.values, r.ReadDoubles(count));
      break;
    }
    default:
      return Corrupt("unknown journal record kind " + std::to_string(kind));
  }
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return record;
}

std::string JournalPrologue() {
  Writer w;
  w.PutU32(kJournalMagic);
  w.PutU32(kJournalFormatVersion);
  return w.TakeBuffer();
}

/// A journal file starts with its magic and version, 8 bytes in all.
constexpr uint64_t kJournalPrologueBytes = 8;

/// One journal file as the one reader finds it: whether it exists, its size,
/// whether its magic/version prologue is intact and, when it is, the scan of
/// the records after it. Every reader of journal files goes through
/// ReadJournalFile and applies its own policy to the damage it reports.
struct JournalFile {
  bool exists = false;
  uint64_t size = 0;
  bool prologue_ok = false;
  RecordScan scan;
};

Result<JournalFile> ReadJournalFile(const std::string& path) {
  JournalFile file;
  Result<std::string> read = ReadFileBytes(path);
  if (read.status().code() == StatusCode::kNotFound) return file;
  DPE_ASSIGN_OR_RETURN(const std::string data, std::move(read));
  JournalBytesRead().Increment(data.size());
  file.exists = true;
  file.size = data.size();
  file.prologue_ok = data.starts_with(JournalPrologue());
  if (file.prologue_ok) {
    file.scan =
        ScanRecords(std::string_view(data).substr(kJournalPrologueBytes));
  }
  return file;
}

/// The records of `file` for a load or a fold. Damage that ends the file (a
/// torn tail, or a final record whose checksum fails: the half-flushed
/// append of a killed process) is dropped when `tolerate_tail` and refused
/// otherwise. A bad prologue, damage followed by more bytes and a record
/// that does not decode are ParseErrors either way.
Result<std::vector<JournalRecord>> DecodeJournal(const JournalFile& file,
                                                 const std::string& path,
                                                 bool tolerate_tail) {
  if (!file.prologue_ok) {
    return Corrupt("journal " + path + " lacks its magic/version prologue");
  }
  const RecordScan& scan = file.scan;
  if (scan.damage_followed) {
    return Corrupt("record checksum mismatch mid-stream in " + path);
  }
  if (!tolerate_tail && (scan.damaged_records > 0 || scan.torn_bytes > 0)) {
    return Corrupt("torn journal tail in " + path + " (crash mid-append?)");
  }
  std::vector<JournalRecord> records;
  records.reserve(scan.records.size());
  for (const std::string& payload : scan.records) {
    DPE_ASSIGN_OR_RETURN(JournalRecord record, DecodeJournalRecord(payload));
    records.push_back(std::move(record));
  }
  return records;
}

/// One journal file's strict or crash-tolerant read, accumulated into
/// `recovery`. Recovery cuts damage at the end of the file back to the last
/// intact record, so future appends extend an intact stream instead of
/// burying garbage mid-file, and counts the cut as one dropped record.
Status LoadJournalFile(const std::string& path, bool recover_torn_tail,
                       JournalRecovery* recovery) {
  DPE_ASSIGN_OR_RETURN(JournalFile file, ReadJournalFile(path));
  if (!file.exists) return Status::OK();  // no journal = no records
  std::error_code ec;
  uint64_t kept = 0;
  if (recover_torn_tail && file.size < kJournalPrologueBytes) {
    // A crash can die inside the very first buffered write, before even the
    // prologue is complete. The prologue is only ever written as part of an
    // append, so the stub goes and its in-flight record counts as dropped.
    fs::remove(path, ec);
  } else {
    DPE_ASSIGN_OR_RETURN(std::vector<JournalRecord> records,
                         DecodeJournal(file, path, recover_torn_tail));
    recovery->records.insert(recovery->records.end(),
                             std::make_move_iterator(records.begin()),
                             std::make_move_iterator(records.end()));
    kept = kJournalPrologueBytes + file.scan.valid_bytes;
    if (kept == file.size) return Status::OK();
    fs::resize_file(path, kept, ec);
    if (ec) {
      return Status::Internal("matrix store: cannot truncate torn journal " +
                              path);
    }
  }
  const uint64_t dropped = file.size - kept;
  recovery->tail_truncated = true;
  recovery->dropped_records += 1;  // a tear is one half-flushed record
  recovery->dropped_bytes += dropped;
  JournalTornTailRecoveries().Increment();
  JournalDroppedRecords().Increment();
  JournalDroppedBytes().Increment(dropped);
  return Status::OK();
}

// -- Snapshot payload codec ---------------------------------------------------
//
//   [core_len u64][core_crc u32][core]
//   [chunk_count u32]
//   chunk*: [chunk_len u64][chunk_crc u32][chunk]
//
//   core  = [query_count u64] [sql string]*
//           [measure_count u32] ([name string][rows u64])*
//   chunk = [measure index u32][first row u32][row count u32][raw doubles]
//
// Each chunk holds whole rows of one measure's triangle, and a measure's
// chunks follow each other in row order.

/// Cells per snapshot chunk (a chunk closes once it holds at least this
/// many): a byte flip quarantines about this much work, not the checkpoint.
constexpr size_t kSnapshotChunkCells = 4096;

/// The decoded core: the query log plus each measure's declared rows, in
/// the order chunks index them.
struct SnapshotCore {
  std::vector<std::string> queries;
  std::vector<std::pair<std::string, uint64_t>> measures;
};

Result<SnapshotCore> DecodeSnapshotCore(std::string_view bytes) {
  Reader r(bytes);
  SnapshotCore core;
  DPE_ASSIGN_OR_RETURN(uint64_t query_count, r.ReadU64());
  if (query_count > r.remaining() / 4) {  // >= 4 bytes per string
    return Corrupt("snapshot query count " + std::to_string(query_count) +
                   " exceeds remaining input");
  }
  core.queries.reserve(query_count);
  for (uint64_t k = 0; k < query_count; ++k) {
    DPE_ASSIGN_OR_RETURN(std::string sql, r.ReadString());
    core.queries.push_back(std::move(sql));
  }
  DPE_ASSIGN_OR_RETURN(uint32_t measure_count, r.ReadU32());
  if (measure_count > r.remaining() / 12) {  // >= 12 bytes per measure
    return Corrupt("snapshot measure count " + std::to_string(measure_count) +
                   " exceeds remaining input");
  }
  for (uint32_t k = 0; k < measure_count; ++k) {
    DPE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    DPE_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
    if (rows > query_count) {
      return Corrupt("snapshot measure '" + name + "' declares " +
                     std::to_string(rows) + " rows over " +
                     std::to_string(query_count) + " queries");
    }
    for (const auto& [seen, unused] : core.measures) {
      if (seen == name) return Corrupt("snapshot measure '" + name + "' twice");
    }
    core.measures.emplace_back(std::move(name), rows);
  }
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return core;
}

std::string EncodeSnapshotPayload(const Snapshot& snapshot) {
  Writer core;
  core.PutU64(snapshot.queries.size());
  for (const std::string& sql : snapshot.queries) core.PutString(sql);
  core.PutU32(static_cast<uint32_t>(snapshot.triangles.size()));
  for (const auto& [name, triangle] : snapshot.triangles) {
    core.PutString(name);
    core.PutU64(triangle.rows());
  }

  Writer chunks;
  uint32_t chunk_count = 0;
  uint32_t measure_index = 0;
  for (const auto& [name, triangle] : snapshot.triangles) {
    for (size_t first = 0; first < triangle.rows();) {
      size_t end = first;
      size_t cells = 0;
      while (end < triangle.rows() && cells < kSnapshotChunkCells) {
        cells += end++;
      }
      Writer chunk;
      chunk.PutU32(measure_index);
      chunk.PutU32(static_cast<uint32_t>(first));
      chunk.PutU32(static_cast<uint32_t>(end - first));
      chunk.PutDoubles(triangle.Rows(first, end));
      chunks.PutU64(chunk.buffer().size());
      chunks.PutU32(Crc32(chunk.buffer()));
      chunks.PutRaw(chunk.buffer());
      ++chunk_count;
      first = end;
    }
    ++measure_index;
  }

  Writer w;
  w.PutU64(core.buffer().size());
  w.PutU32(Crc32(core.buffer()));
  w.PutRaw(core.buffer());
  w.PutU32(chunk_count);
  w.PutRaw(chunks.buffer());
  return w.TakeBuffer();
}

/// Appends one chunk's rows to its measure's triangle. ParseError unless
/// the chunk names a declared measure, continues that triangle exactly at
/// its rows(), stays within the declared rows and carries exactly their
/// cells.
Status ApplySnapshotChunk(std::string_view chunk, const SnapshotCore& core,
                          std::vector<distance::DistanceTriangle>* triangles) {
  Reader r(chunk);
  DPE_ASSIGN_OR_RETURN(uint32_t measure_index, r.ReadU32());
  DPE_ASSIGN_OR_RETURN(uint32_t first, r.ReadU32());
  DPE_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (measure_index >= core.measures.size()) {
    return Corrupt("snapshot chunk names measure #" +
                   std::to_string(measure_index) + " of " +
                   std::to_string(core.measures.size()));
  }
  distance::DistanceTriangle& triangle = (*triangles)[measure_index];
  const uint64_t end = uint64_t{first} + count;
  if (count == 0 || first != triangle.rows() ||
      end > core.measures[measure_index].second) {
    return Corrupt("snapshot chunk rows [" + std::to_string(first) + ", " +
                   std::to_string(end) + ") do not continue measure '" +
                   core.measures[measure_index].first + "' at row " +
                   std::to_string(triangle.rows()));
  }
  const size_t cells = distance::DistanceTriangle::CellCount(end) -
                       distance::DistanceTriangle::CellCount(first);
  if (r.remaining() != cells * sizeof(double)) {
    return Corrupt("snapshot chunk carries " + std::to_string(r.remaining()) +
                   " bytes for " + std::to_string(cells) + " cells");
  }
  DPE_ASSIGN_OR_RETURN(std::vector<double> values, r.ReadDoubles(cells));
  for (size_t row = first, offset = 0; row < end; offset += row++) {
    DPE_RETURN_NOT_OK(triangle.AppendRow(
        std::span<const double>(values).subspan(offset, row)));
  }
  return Status::OK();
}

Snapshot AssembleSnapshot(SnapshotCore core,
                          std::vector<distance::DistanceTriangle> triangles) {
  Snapshot snapshot;
  snapshot.queries = std::move(core.queries);
  for (size_t k = 0; k < core.measures.size(); ++k) {
    snapshot.triangles.emplace(std::move(core.measures[k].first),
                               std::move(triangles[k]));
  }
  return snapshot;
}

/// A decoded snapshot plus what the decode skipped. `snapshot` holds each
/// declared measure, its triangle the prefix of rows that intact, in-order
/// chunks carried.
struct SnapshotDecode {
  Snapshot snapshot;
  uint64_t chunks = 0;          ///< chunks the payload declares
  uint64_t chunks_skipped = 0;  ///< damaged, or not continuing their measure
  uint64_t cells_missing = 0;   ///< declared cells no applied chunk carried
  Status defect;                ///< the first defect; OK when there is none
};

/// The one snapshot decoder, for strict loads and the scrubber alike. The
/// core must decode: the queries are source data and cannot be recomputed,
/// so a core that does not is a ParseError. Any later defect is recorded
/// and decoding goes on, skipping a chunk that fails its checksum or does
/// not continue its measure. The core and chunk checksums are recomputed
/// only when `frame_crc_ok` is false: a frame checksum that matched already
/// covers every byte, and the inner ones exist to localize damage once it
/// has failed.
Result<SnapshotDecode> DecodeSnapshotPayload(std::string_view payload,
                                             bool frame_crc_ok) {
  Reader r(payload);
  DPE_ASSIGN_OR_RETURN(uint64_t core_len, r.ReadU64());
  DPE_ASSIGN_OR_RETURN(uint32_t core_crc, r.ReadU32());
  DPE_ASSIGN_OR_RETURN(std::string core_bytes, r.ReadBytes(core_len));
  if (!frame_crc_ok && Crc32(core_bytes) != core_crc) {
    return Corrupt("snapshot core checksum mismatch");
  }
  DPE_ASSIGN_OR_RETURN(SnapshotCore core, DecodeSnapshotCore(core_bytes));

  SnapshotDecode out;
  auto note = [&out](Status defect) {
    if (out.defect.ok()) out.defect = std::move(defect);
  };
  std::vector<distance::DistanceTriangle> triangles(core.measures.size());
  // The chunks carry every declared cell as 8 raw bytes, so the declared
  // rows are checked against the bytes present before any is allocated.
  uint64_t declared_cells = 0;
  for (const auto& [name, rows] : core.measures) {
    declared_cells += distance::DistanceTriangle::CellCount(rows);
  }
  if (declared_cells > r.remaining() / sizeof(double)) {
    note(Corrupt("snapshot declares " + std::to_string(declared_cells) +
                 " cells but holds " + std::to_string(r.remaining()) +
                 " payload bytes"));
  } else {
    for (size_t k = 0; k < triangles.size(); ++k) {
      triangles[k].Reserve(core.measures[k].second);
    }
  }
  Result<uint32_t> chunk_count = r.ReadU32();
  if (!chunk_count.ok()) note(chunk_count.status());
  out.chunks = chunk_count.ok() ? *chunk_count : 0;
  if (out.chunks > r.remaining() / 12) {  // >= 12 header bytes per chunk
    note(Corrupt("snapshot chunk count " + std::to_string(out.chunks) +
                 " exceeds remaining input"));
  }
  // Each pass consumes a 12-byte header or ends the loop, so a count the
  // bytes cannot hold stops where they do.
  for (uint64_t c = 0; c < out.chunks; ++c) {
    Result<uint64_t> chunk_len = r.ReadU64();
    Result<uint32_t> chunk_crc = r.ReadU32();
    if (!chunk_len.ok() || !chunk_crc.ok() || *chunk_len > r.remaining()) {
      // Nothing past a broken chunk header can be framed: the rest of the
      // chunk stream is skipped wholesale.
      note(Corrupt("snapshot chunk " + std::to_string(c) +
                   " is cut off by the end of the payload"));
      out.chunks_skipped += out.chunks - c;
      break;
    }
    const std::string chunk = r.ReadBytes(*chunk_len).value();
    Status applied = !frame_crc_ok && Crc32(chunk) != *chunk_crc
                         ? Corrupt("snapshot chunk " + std::to_string(c) +
                                   " checksum mismatch")
                         : ApplySnapshotChunk(chunk, core, &triangles);
    if (!applied.ok()) {
      note(std::move(applied));
      out.chunks_skipped += 1;
    }
  }
  note(r.ExpectEnd());
  for (size_t k = 0; k < core.measures.size(); ++k) {
    const auto& [name, rows] = core.measures[k];
    if (triangles[k].rows() != rows) {
      note(Corrupt("snapshot measure '" + name + "' declares " +
                   std::to_string(rows) + " rows but its chunks carry " +
                   std::to_string(triangles[k].rows())));
    }
    out.cells_missing +=
        distance::DistanceTriangle::CellCount(rows) - triangles[k].cells();
  }
  out.snapshot = AssembleSnapshot(std::move(core), std::move(triangles));
  return out;
}

/// Parses "<stem>.<g>.dpe" -> g. False for every other name — shard, lease
/// and tmp files, and a generation too large for u64 — so a stray file is
/// never mistaken for (or swept as) a generation.
bool ParseGenerationName(std::string_view filename, std::string_view stem,
                         uint64_t* gen) {
  constexpr std::string_view kSuffix = ".dpe";
  if (filename.size() <= stem.size() + 1 + kSuffix.size() ||
      !filename.starts_with(stem) || filename[stem.size()] != '.' ||
      !filename.ends_with(kSuffix)) {
    return false;
  }
  const std::string_view digits = filename.substr(
      stem.size() + 1, filename.size() - stem.size() - 1 - kSuffix.size());
  const char* end = digits.data() + digits.size();
  const auto [parsed_end, ec] = std::from_chars(digits.data(), end, *gen);
  return ec == std::errc() && parsed_end == end;
}

}  // namespace

Result<MatrixStore> MatrixStore::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    // Surface the OS error text: "Permission denied" vs "Not a directory"
    // vs "No space left on device" need different operator responses.
    return Status::InvalidArgument("matrix store: cannot create directory " +
                                   dir + ": " + ec.message());
  }
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument(
        "matrix store: " + dir + " exists but is not a directory" +
        (ec ? " (" + ec.message() + ")" : ""));
  }
  MatrixStore store(dir);
  store.ResolveGenerations();
  return store;
}

Result<MatrixStore> MatrixStore::OpenExisting(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("matrix store: no store directory at " + dir);
  }
  MatrixStore store(dir);
  store.ResolveGenerations();
  return store;
}

std::string MatrixStore::SnapshotPath() const {
  return SnapshotPathForGen(gen_);
}

std::string MatrixStore::JournalPath() const {
  return JournalPathForGen(journal_gen_);
}

std::string MatrixStore::SnapshotPathForGen(uint64_t gen) const {
  return (fs::path(dir_) / ("snapshot." + std::to_string(gen) + ".dpe"))
      .string();
}

std::string MatrixStore::JournalPathForGen(uint64_t gen) const {
  return (fs::path(dir_) / ("journal." + std::to_string(gen) + ".dpe"))
      .string();
}

std::string MatrixStore::ManifestPath() const {
  return (fs::path(dir_) / "MANIFEST.dpe").string();
}

void MatrixStore::ResolveGenerations() {
  gen_ = 0;
  manifest_ok_ = true;
  Result<std::string> payload = ReadFramedFile(ManifestPath(), kManifestMagic);
  if (payload.ok()) {
    Reader r(*payload);
    Result<CompactionManifest> manifest = DecodeCompactionManifest(&r);
    if (manifest.ok() && r.AtEnd()) {
      gen_ = manifest->generation;
    } else {
      manifest_ok_ = false;
    }
  } else if (payload.status().code() != StatusCode::kNotFound) {
    manifest_ok_ = false;
  }
  if (!manifest_ok_) {
    // The manifest is a pointer, not the data: fall back to the highest
    // generation whose snapshot frame still reads valid. Scrub() rebuilds
    // the manifest from this resolution.
    uint64_t best = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      uint64_t g = 0;
      if (!ParseGenerationName(entry.path().filename().string(), "snapshot",
                               &g)) {
        continue;
      }
      if (g > best && ReadFramedFile(SnapshotPathForGen(g), kSnapshotMagic,
                                     kSnapshotFormatVersion)
                          .ok()) {
        best = g;
      }
    }
    gen_ = best;
  }
  std::error_code ec;
  journal_gen_ =
      fs::exists(JournalPathForGen(gen_ + 1), ec) ? gen_ + 1 : gen_;
}

std::string MatrixStore::ShardPath(const std::string& matrix,
                                   uint32_t shard_index,
                                   uint32_t shard_count) const {
  return (fs::path(dir_) /
          ("shard-" + matrix + "-" + std::to_string(shard_index) + "of" +
           std::to_string(shard_count) + ".dpe"))
      .string();
}

// -- Snapshot ----------------------------------------------------------------

bool MatrixStore::HasManifest() const {
  std::error_code ec;
  return fs::exists(ManifestPath(), ec);
}

bool MatrixStore::HasSnapshot() const {
  std::error_code ec;
  return HasManifest() && fs::exists(SnapshotPath(), ec);
}

Status MatrixStore::WriteSnapshotToPath(const std::string& path,
                                        const Snapshot& snapshot) const {
  return WriteFramedFile(path, kSnapshotMagic, EncodeSnapshotPayload(snapshot),
                         kSnapshotFormatVersion,
                         fsync_policy_ != FsyncPolicy::kNever);
}

Status MatrixStore::WriteManifest(const CompactionManifest& manifest) const {
  Writer w;
  EncodeCompactionManifest(manifest, &w);
  return WriteFramedFile(ManifestPath(), kManifestMagic, w.buffer(),
                         kFormatVersion, fsync_policy_ != FsyncPolicy::kNever);
}

void MatrixStore::SweepOldGenerations(uint64_t keep_gen) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    uint64_t g = 0;
    if ((ParseGenerationName(name, "snapshot", &g) ||
         ParseGenerationName(name, "journal", &g)) &&
        g < keep_gen) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);  // best effort: stale files are inert
    }
  }
}

Status MatrixStore::WriteSnapshot(const Snapshot& snapshot) {
  // A full checkpoint targets the ACTIVE journal's generation: when an
  // interrupted compaction left the journal rotated to gen+1, writing the
  // checkpoint there completes the rotation instead of fighting it. The
  // MANIFEST rename commits it: a crash before that leaves a fresh store
  // with no checkpoint, and a store that had one with the old or the new
  // snapshot (each file is replaced atomically).
  const uint64_t target = journal_gen_;
  DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPathForGen(target), snapshot));
  CompactionManifest manifest;
  manifest.generation = target;
  DPE_RETURN_NOT_OK(WriteManifest(manifest));
  gen_ = target;
  manifest_ok_ = true;
  ++mutation_epoch_;  // supersedes any in-flight compaction of older state
  SweepOldGenerations(gen_);
  return Status::OK();
}

Result<Snapshot> MatrixStore::ReadSnapshotForGen(uint64_t gen) const {
  if (!HasManifest()) {
    return Status::NotFound("matrix store: no checkpoint in " + dir_ +
                            " (no MANIFEST.dpe)");
  }
  DPE_ASSIGN_OR_RETURN(std::string payload,
                       ReadFramedFile(SnapshotPathForGen(gen), kSnapshotMagic,
                                      kSnapshotFormatVersion));
  DPE_ASSIGN_OR_RETURN(SnapshotDecode decoded,
                       DecodeSnapshotPayload(payload, /*frame_crc_ok=*/true));
  DPE_RETURN_NOT_OK(decoded.defect);
  return std::move(decoded.snapshot);
}

Result<Snapshot> MatrixStore::ReadSnapshot() const {
  return ReadSnapshotForGen(gen_);
}

// -- Journal -----------------------------------------------------------------

Status MatrixStore::AppendRecords(const std::vector<JournalRecord>& records) {
  if (records.empty()) return Status::OK();
  std::string frame;
  // A fresh journal starts with the same magic/version prologue as the
  // framed files (but no length/checksum — records carry their own).
  constexpr uintmax_t kUnknownSize = static_cast<uintmax_t>(-1);
  std::error_code ec;
  const bool existed = fs::exists(JournalPath(), ec);
  uintmax_t old_size = 0;
  if (existed) {
    old_size = fs::file_size(JournalPath(), ec);
    if (ec) old_size = kUnknownSize;  // unknown: rollback must not "grow"
  }
  if (!existed) frame = JournalPrologue();
  for (const JournalRecord& record : records) {
    Writer payload;
    EncodeJournalRecord(record, &payload);
    AppendRecord(payload.buffer(), &frame);
  }

  std::ofstream out(JournalPath(), std::ios::binary | std::ios::app);
  if (!out) {
    return Status::Internal("matrix store: cannot open journal " +
                            JournalPath());
  }
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (out && fsync_policy_ == FsyncPolicy::kAlways) {
    // kAlways: the record must survive power loss once this returns, not
    // just process death. Close first so libc buffers cannot outlive the
    // sync; and when this append CREATED the journal, sync the directory
    // too — a durable file behind a lost dirent is still a lost file.
    out.close();
    DPE_RETURN_NOT_OK(SyncPath(JournalPath()));
    if (!existed) DPE_RETURN_NOT_OK(SyncPath(dir_));
    JournalBytesWritten().Increment(frame.size());
    JournalRecordsAppended().Increment(records.size());
    return Status::OK();
  }
  if (!out) {
    // Roll the partial append back (best effort): torn bytes left at the
    // tail would be buried mid-stream by a later successful append,
    // turning a transient write failure into permanent corruption.
    out.close();
    if (!existed) {
      fs::remove(JournalPath(), ec);
    } else if (old_size != kUnknownSize) {
      fs::resize_file(JournalPath(), old_size, ec);
    }
    return Status::Internal("matrix store: short write to journal " +
                            JournalPath());
  }
  JournalBytesWritten().Increment(frame.size());
  JournalRecordsAppended().Increment(records.size());
  return Status::OK();
}

Status MatrixStore::AppendQuery(uint32_t index, const std::string& sql) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kQueryAppended;
  record.index = index;
  record.sql = sql;
  return AppendRecords({std::move(record)});
}

Status MatrixStore::AppendRow(const std::string& measure, uint32_t row,
                              std::span<const double> values) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kRowComputed;
  record.measure = measure;
  record.row = row;
  record.values.assign(values.begin(), values.end());
  return AppendRecords({std::move(record)});
}

Result<JournalRecovery> MatrixStore::ReadJournalImpl(
    bool recover_torn_tail) const {
  JournalRecovery recovery;
  // While a compaction is (or was) in flight the frozen gen journal replays
  // first, then the active gen+1 journal on top: append order.
  for (uint64_t g = gen_; g <= journal_gen_; ++g) {
    DPE_RETURN_NOT_OK(
        LoadJournalFile(JournalPathForGen(g), recover_torn_tail, &recovery));
  }
  return recovery;
}

Result<std::vector<JournalRecord>> MatrixStore::ReadJournal() const {
  DPE_ASSIGN_OR_RETURN(JournalRecovery recovery,
                       ReadJournalImpl(/*recover_torn_tail=*/false));
  return std::move(recovery.records);
}

Result<JournalRecovery> MatrixStore::RecoverJournal() {
  return ReadJournalImpl(/*recover_torn_tail=*/true);
}

Status MatrixStore::TruncateJournal() {
  for (uint64_t g : {gen_, gen_ + 1}) {
    std::error_code ec;
    fs::remove(JournalPathForGen(g), ec);
    if (ec) {
      return Status::Internal("matrix store: cannot remove journal " +
                              JournalPathForGen(g));
    }
  }
  journal_gen_ = gen_;
  ++mutation_epoch_;  // any in-flight fold of those records is now stale
  return Status::OK();
}

uint64_t MatrixStore::JournalBytes() const {
  uint64_t total = 0;
  for (uint64_t g = gen_; g <= journal_gen_; ++g) {
    std::error_code ec;
    uintmax_t size = fs::file_size(JournalPathForGen(g), ec);
    if (!ec) total += size;
  }
  return total;
}

// -- Online compaction ---------------------------------------------------------

Result<CompactionPlan> MatrixStore::BeginCompaction() {
  CompactionPlan plan;
  plan.from_gen = gen_;
  plan.to_gen = gen_ + 1;
  plan.epoch = mutation_epoch_;
  std::error_code ec;
  const uintmax_t frozen_bytes = fs::file_size(JournalPathForGen(gen_), ec);
  if (ec || frozen_bytes <= 8) {  // absent or prologue-only: nothing to fold
    return plan;
  }
  plan.has_work = true;
  plan.journal_cut_bytes = frozen_bytes;
  // Rotate: from here on appends go to the gen+1 journal, freezing the gen
  // journal for the fold. Pure in-memory state — a crash right after this
  // loses nothing (recovery replays both journals over snapshot.<gen>).
  // Idempotent when a crashed compaction already rotated us.
  journal_gen_ = gen_ + 1;
  common::FaultInjector::Global().Fire("store.compaction.rotate");
  return plan;
}

Result<Snapshot> MatrixStore::FoldFrozen(const CompactionPlan& plan) const {
  Result<Snapshot> base = ReadSnapshotForGen(plan.from_gen);
  if (!base.ok() && base.status().code() != StatusCode::kNotFound) {
    return base.status();
  }
  Snapshot folded = base.ok() ? std::move(base).value() : Snapshot{};

  // The frozen journal is read tolerantly and WITHOUT mutating the file —
  // this runs off-lock while appends continue elsewhere. Damage at its end
  // is dropped silently: those bytes belong to an append that never
  // acknowledged, and the fold's output supersedes the frozen file anyway.
  // A stub shorter than the prologue holds nothing to fold.
  const std::string path = JournalPathForGen(plan.from_gen);
  DPE_ASSIGN_OR_RETURN(const JournalFile file, ReadJournalFile(path));
  if (file.size < kJournalPrologueBytes) return folded;
  DPE_ASSIGN_OR_RETURN(std::vector<JournalRecord> records,
                       DecodeJournal(file, path, /*tolerate_tail=*/true));
  DPE_RETURN_NOT_OK(ApplyJournal(records, &folded));
  return folded;
}

Result<bool> MatrixStore::PublishCompaction(const CompactionPlan& plan,
                                            const Snapshot& folded) {
  if (!plan.has_work) return false;
  if (plan.epoch != mutation_epoch_) {
    // A full checkpoint (or truncation) superseded this fold while it ran.
    // Its state already covers everything the fold covered — drop it.
    return false;
  }
  auto& faults = common::FaultInjector::Global();
  faults.Fire("store.compaction.before_snapshot");
  DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPathForGen(plan.to_gen),
                                        folded));
  faults.Fire("store.compaction.after_snapshot");
  CompactionManifest manifest;
  manifest.generation = plan.to_gen;
  manifest.journal_cut_offset = plan.journal_cut_bytes;
  DPE_RETURN_NOT_OK(WriteManifest(manifest));
  // The manifest rename is the commit point: before it, recovery resolves
  // to from_gen (both journals replay); after it, to to_gen (the frozen
  // journal's records live in snapshot.<to_gen>).
  faults.Fire("store.compaction.after_manifest");
  gen_ = plan.to_gen;
  manifest_ok_ = true;
  // Another in-flight fold of from_gen is stale now: the sweep below
  // removes the files it reads, and this publish already covers them.
  ++mutation_epoch_;
  faults.Fire("store.compaction.before_cleanup");
  SweepOldGenerations(gen_);
  CompactionPublishes().Increment();
  return true;
}

// -- Scrub ---------------------------------------------------------------------

Result<ScrubReport> MatrixStore::Scrub() {
  ScrubReport report;
  ScrubRuns().Increment();

  if (!manifest_ok_) {
    // gen_ was already re-resolved from the highest readable snapshot at
    // open; persisting it makes the repair durable.
    CompactionManifest manifest;
    manifest.generation = gen_;
    DPE_RETURN_NOT_OK(WriteManifest(manifest));
    manifest_ok_ = true;
    report.manifest_rebuilt = true;
    ScrubRewrites().Increment();
  }

  // Without a MANIFEST no checkpoint was committed: there is no snapshot to
  // check, only journals.
  Result<SalvagedFrame> frame =
      HasManifest() ? ReadFramedFileSalvage(SnapshotPath(), kSnapshotMagic,
                                            kSnapshotFormatVersion)
                    : Result<SalvagedFrame>(Status::NotFound("no checkpoint"));
  if (frame.ok()) {
    Result<SnapshotDecode> decoded =
        DecodeSnapshotPayload(frame->payload, frame->crc_ok);
    if (!decoded.ok()) {
      // The query log is source data — it cannot be recomputed, so a
      // damaged core is not salvageable. Leave the file alone; strict
      // loads keep failing typed (never a wrong matrix).
      report.snapshot_unreadable = true;
    } else {
      report.snapshot_chunks_checked = decoded->chunks;
      report.snapshot_chunks_quarantined = decoded->chunks_skipped;
      report.cells_quarantined = decoded->cells_missing;
      if (!frame->crc_ok || !decoded->defect.ok()) {
        DPE_RETURN_NOT_OK(WriteSnapshotToPath(SnapshotPath(),
                                              decoded->snapshot));
        report.snapshot_rewritten = true;
        ScrubCellsQuarantined().Increment(decoded->cells_missing);
        ScrubRewrites().Increment();
      }
    }
  } else if (frame.status().code() != StatusCode::kNotFound) {
    report.snapshot_unreadable = true;  // structural frame damage
  }

  for (uint64_t g = gen_; g <= journal_gen_; ++g) {
    const std::string path = JournalPathForGen(g);
    DPE_ASSIGN_OR_RETURN(const JournalFile file, ReadJournalFile(path));
    if (!file.exists) continue;
    if (!file.prologue_ok) {
      // With a corrupt prologue the record framing cannot be trusted at
      // all; the whole file is quarantined. Its records were deltas on top
      // of the snapshot — losing them degrades, replaying garbage corrupts.
      std::error_code ec;
      fs::remove(path, ec);
      report.journal_rewritten = true;
      report.journal_bytes_quarantined += file.size;
      ScrubRewrites().Increment();
      continue;
    }
    const RecordScan& scan = file.scan;
    std::string records;
    uint64_t quarantined_records = scan.damaged_records;
    uint64_t quarantined_bytes = scan.damaged_bytes + scan.torn_bytes;
    for (const std::string& payload : scan.records) {
      // Checksum-passing payloads still pass the decode gate: a flip that
      // lands in both the payload and its checksum consistently is
      // astronomically unlikely, but a malformed record must never be
      // rewritten as "good".
      if (DecodeJournalRecord(payload).ok()) {
        AppendRecord(payload, &records);
      } else {
        quarantined_records += 1;
        quarantined_bytes += payload.size() + 8;
      }
    }
    report.journal_records_checked +=
        scan.records.size() + scan.damaged_records;
    if (quarantined_records == 0 && scan.torn_bytes == 0) continue;  // clean
    DPE_RETURN_NOT_OK(WriteFileAtomic(path, JournalPrologue(), records,
                                      fsync_policy_ != FsyncPolicy::kNever));
    report.journal_rewritten = true;
    report.journal_records_quarantined += quarantined_records;
    report.journal_bytes_quarantined += quarantined_bytes;
    ScrubJournalRecordsQuarantined().Increment(quarantined_records);
    ScrubRewrites().Increment();
  }

  if (report.cells_quarantined > 0) {
    ++mutation_epoch_;  // the rewritten snapshot supersedes in-flight folds
  }
  return report;
}

// -- Journal replay -----------------------------------------------------------

Status ApplyJournal(const std::vector<JournalRecord>& records,
                    Snapshot* snapshot) {
  for (const JournalRecord& record : records) {
    const size_t log_size = snapshot->queries.size();
    switch (record.kind) {
      case JournalRecord::Kind::kQueryAppended:
        if (record.index < log_size) break;
        if (record.index > log_size) {
          return Corrupt("journal query index " +
                         std::to_string(record.index) + " leaves a gap over " +
                         std::to_string(log_size) + " queries");
        }
        snapshot->queries.push_back(record.sql);
        break;
      case JournalRecord::Kind::kRowComputed: {
        if (record.row >= log_size) {
          return Corrupt("journal row " + std::to_string(record.row) +
                         " of '" + record.measure + "' outside log of " +
                         std::to_string(log_size) + " queries");
        }
        distance::DistanceTriangle& triangle =
            snapshot->triangles[record.measure];
        if (record.row != triangle.rows()) break;
        DPE_RETURN_NOT_OK(triangle.AppendRow(record.values));
        break;
      }
    }
  }
  return Status::OK();
}

// -- Shards ------------------------------------------------------------------

Status MatrixStore::WriteShard(const ShardManifest& manifest,
                               const distance::DistanceMatrix& partial) {
  if (std::string defect = ShardManifestDefect(manifest); !defect.empty()) {
    return Status::InvalidArgument("matrix store: " + defect);
  }
  if (partial.size() < manifest.row_end) {
    return Status::InvalidArgument(
        "matrix store: shard partial has " + std::to_string(partial.size()) +
        " rows but the manifest's range ends at row " +
        std::to_string(manifest.row_end));
  }
  Writer w;
  EncodeShardManifest(manifest, &w);
  for (size_t r = manifest.row_begin; r < manifest.row_end; ++r) {
    w.PutDoubles({partial.RowUnchecked(r), r});
  }
  return WriteFramedFile(
      ShardPath(manifest.matrix, manifest.shard_index, manifest.shard_count),
      kShardMagic, w.buffer(), kShardFormatVersion,
      fsync_policy_ != FsyncPolicy::kNever);
}

Result<ShardFile> MatrixStore::ReadShard(const std::string& matrix,
                                         uint32_t shard_index,
                                         uint32_t shard_count) const {
  const std::string path = ShardPath(matrix, shard_index, shard_count);
  DPE_ASSIGN_OR_RETURN(std::string payload,
                       ReadFramedFile(path, kShardMagic, kShardFormatVersion));
  Reader r(payload);
  ShardFile shard;
  DPE_ASSIGN_OR_RETURN(shard.manifest, DecodeShardManifest(&r));
  if (shard.manifest.matrix != matrix ||
      shard.manifest.shard_index != shard_index ||
      shard.manifest.shard_count != shard_count) {
    return Corrupt("shard file " + path + " declares shard " +
                   std::to_string(shard.manifest.shard_index) + "/" +
                   std::to_string(shard.manifest.shard_count) +
                   " of matrix '" + shard.manifest.matrix + "'");
  }
  // u32 rows keep this product inside 64 bits; ReadDoubles checks it
  // against the bytes present before allocating.
  const uint64_t count =
      distance::DistanceTriangle::CellCount(shard.manifest.row_end) -
      distance::DistanceTriangle::CellCount(shard.manifest.row_begin);
  DPE_ASSIGN_OR_RETURN(shard.cells, r.ReadDoubles(count));
  DPE_RETURN_NOT_OK(r.ExpectEnd());
  return shard;
}

bool MatrixStore::HasShard(const std::string& matrix, uint32_t shard_index,
                           uint32_t shard_count) const {
  std::error_code ec;
  return fs::exists(ShardPath(matrix, shard_index, shard_count), ec);
}

Status MatrixStore::RemoveShard(const std::string& matrix,
                                uint32_t shard_index, uint32_t shard_count) {
  const std::string path = ShardPath(matrix, shard_index, shard_count);
  std::error_code ec;
  fs::remove(path, ec);  // remove() is false-without-error when absent
  if (ec) {
    return Status::Internal("store: cannot remove shard file " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

}  // namespace dpe::store
