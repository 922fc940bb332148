// Persistent distance store: snapshot + append-only journal, rooted in one
// directory, so incremental mining survives restarts.
//
//   <dir>/MANIFEST.dpe       tiny CRC'd generation pointer ("DPEC" frame):
//                            which snapshot generation is current. Its
//                            atomic rename commits every checkpoint; a
//                            directory without one holds no checkpoint.
//   <dir>/snapshot.<g>.dpe   full checkpoint of generation g: query log
//                            (canonical SQL) plus each measure's distance
//                            triangle, in CRC'd chunks of whole rows
//   <dir>/journal.<g>.dpe    append-only log of work done *after*
//                            snapshot.<g>: appended queries and computed
//                            triangle rows
//   <dir>/shard-<name>-<i>of<k>.dpe
//                            one shard of a sharded matrix build: a
//                            ShardManifest (which row range of which
//                            matrix) plus that range's triangle rows as
//                            raw doubles — the exchange format between
//                            shard workers and the shard driver
//                            (engine/driver.h)
//
// A checkpoint writes its snapshot atomically (tmp + rename), commits it
// with the MANIFEST, and replaces the journal; the journal is the cheap hot
// path — one small checksummed record per appended query or computed
// triangle row. Recovery = read snapshot, then ApplyJournal over it. Every
// read path returns common::Status on corruption (bad magic, bad checksum,
// truncated tail) instead of crashing; see store/codec.h for the
// byte-level format.
//
// Online compaction folds a long journal into the next snapshot generation
// without pausing appends (BeginCompaction / FoldFrozen / PublishCompaction
// — see those methods for the crash-safety argument), and Scrub() repairs
// localized corruption by quarantining damaged extents instead of failing
// the load (the engine recomputes quarantined cells through the normal
// build path).

#ifndef DPE_STORE_MATRIX_STORE_H_
#define DPE_STORE_MATRIX_STORE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "distance/matrix.h"
#include "store/codec.h"

namespace dpe::store {

/// A full checkpoint of the incremental-mining state.
struct Snapshot {
  /// Canonical SQL (sql::ToSql) of each log query, in stable-id order.
  /// Restores via sql::Parse — the printer/parser round-trip is a tested
  /// property of the sql layer.
  std::vector<std::string> queries;
  /// Each measure's distance triangle; rows() never exceeds the query
  /// count. A measure a scrub quarantined keeps its (truncated) entry, so
  /// the engine still knows what to recompute.
  std::map<std::string, distance::DistanceTriangle> triangles;
};

/// One replayable journal record.
struct JournalRecord {
  enum class Kind : uint8_t {
    kQueryAppended = 1,  ///< a query was appended to the log
    kRowComputed = 2,    ///< one triangle row was computed
  };

  Kind kind = Kind::kQueryAppended;

  // kQueryAppended: the log index the query was assigned, plus its SQL.
  uint32_t index = 0;
  std::string sql;

  // kRowComputed: row `row` of `measure`'s triangle — d(c, row) for every
  // c < row, so exactly `row` values.
  std::string measure;
  uint32_t row = 0;
  std::vector<double> values;
};

/// Replays `records` over `snapshot` in order — the one replay rule that
/// both a restore (Engine::LoadCheckpoint) and a compaction fold use:
///   - a query record below the log size is skipped (the snapshot already
///     holds it), one equal to it is appended, one above it is a
///     ParseError (a gap);
///   - a row record outside the log is a ParseError;
///   - a row record below its triangle's rows() is skipped (already held),
///     one equal to rows() is appended, one above it is skipped: such a gap
///     only follows a scrub quarantine, and the next build recomputes it.
Status ApplyJournal(const std::vector<JournalRecord>& records,
                    Snapshot* snapshot);

/// What a crash-tolerant journal read recovered — the intact prefix plus an
/// account of what the torn tail cost, so operators can tell a clean
/// shutdown (nothing dropped) from a crash (how much work to redo).
struct JournalRecovery {
  std::vector<JournalRecord> records;  ///< intact records, in append order
  bool tail_truncated = false;  ///< a torn tail was dropped + trimmed
  uint64_t dropped_records = 0; ///< partial records lost to tears (one per
                                ///< torn journal file)
  uint64_t dropped_bytes = 0;   ///< bytes truncated off the journal file
};

/// One shard file's contents: its manifest plus the triangle rows
/// [row_begin, row_end), laid out as distance::DistanceTriangle::Rows
/// returns them — the bytes a snapshot chunk carries for those rows.
struct ShardFile {
  ShardManifest manifest;
  std::vector<double> cells;
};

/// One in-flight compaction, captured at BeginCompaction. Everything the
/// fold and publish steps need travels here by value, so the fold can run
/// off-lock without reading mutable store state.
struct CompactionPlan {
  bool has_work = false;          ///< false: frozen journal empty, nothing to do
  uint64_t from_gen = 0;          ///< generation being folded
  uint64_t to_gen = 0;            ///< generation being published (from + 1)
  uint64_t journal_cut_bytes = 0; ///< frozen-journal size at rotation
  uint64_t epoch = 0;             ///< mutation epoch at rotation (abort guard)
};

/// What Scrub() found and repaired. Counts cover the current generation's
/// snapshot plus both journal generations (frozen + active).
struct ScrubReport {
  bool manifest_rebuilt = false;    ///< corrupt MANIFEST replaced
  bool snapshot_rewritten = false;  ///< damaged chunks quarantined + rewritten
  bool snapshot_unreadable = false; ///< structural/core damage: left as-is,
                                    ///< strict loads keep failing typed
  uint64_t snapshot_chunks_checked = 0;
  uint64_t snapshot_chunks_quarantined = 0;
  uint64_t cells_quarantined = 0;   ///< declared minus recovered cells
  bool journal_rewritten = false;   ///< damaged records quarantined + rewritten
  uint64_t journal_records_checked = 0;
  uint64_t journal_records_quarantined = 0;
  uint64_t journal_bytes_quarantined = 0;
};

/// Threading contract: MatrixStore holds no mutex of its own. An instance
/// is single-owner state — the engine serializes every attach/detach and
/// journal append behind its `store_mu_` (see Engine), and shard workers
/// each open a private instance. Cross-*process* safety comes from the
/// codec's unique-tmp + rename discipline, not from in-process locking.
/// Do not share one instance across threads without external
/// synchronization.
class MatrixStore {
 public:
  /// Opens (creating if needed) the store directory. Fails if `dir` exists
  /// but is not a directory.
  static Result<MatrixStore> Open(const std::string& dir);

  /// Read-side open: NotFound if `dir` does not exist — never creates
  /// anything, so a mistyped restore path fails loudly instead of leaving
  /// empty directory trees behind.
  static Result<MatrixStore> OpenExisting(const std::string& dir);

  const std::string& dir() const { return dir_; }

  /// Current snapshot generation (a fresh store's first checkpoint is
  /// generation 0) and the generation the active journal belongs to
  /// (gen + 1 while a compaction is in flight or was interrupted, gen
  /// otherwise).
  uint64_t generation() const { return gen_; }
  uint64_t journal_generation() const { return journal_gen_; }

  /// Bumped by every operation that supersedes in-flight compaction state
  /// (WriteSnapshot, TruncateJournal, PublishCompaction). PublishCompaction
  /// aborts when the epoch moved since its plan was made.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Total on-disk journal bytes (frozen + active generations) — the
  /// engine's compaction trigger reads this after appends.
  uint64_t JournalBytes() const;

  /// Durability-vs-latency knob for every write this store performs; see
  /// store::FsyncPolicy (codec.h). Defaults to kOnCheckpoint — the
  /// long-standing behavior.
  void set_fsync_policy(FsyncPolicy policy) { fsync_policy_ = policy; }
  FsyncPolicy fsync_policy() const { return fsync_policy_; }

  // -- Snapshot --------------------------------------------------------------

  /// True once a checkpoint was committed: MANIFEST.dpe exists and the
  /// snapshot it names is on disk.
  bool HasSnapshot() const;
  /// Atomically writes the snapshot, then commits it by writing
  /// MANIFEST.dpe (the journal is left untouched; callers checkpointing a
  /// full state follow with TruncateJournal()).
  Status WriteSnapshot(const Snapshot& snapshot);
  /// NotFound if no checkpoint was committed (no MANIFEST.dpe, even if
  /// snapshot files exist); ParseError on corruption.
  Result<Snapshot> ReadSnapshot() const;

  // -- Journal ---------------------------------------------------------------

  /// Appends a kQueryAppended record.
  Status AppendQuery(uint32_t index, const std::string& sql);
  /// Appends a kRowComputed record: `values` is triangle row `row`.
  Status AppendRow(const std::string& measure, uint32_t row,
                   std::span<const double> values);
  /// Appends a batch of records in one open/write/flush cycle — the bulk
  /// path for journaling a whole build's rows.
  Status AppendRecords(const std::vector<JournalRecord>& records);
  /// All journal records since the last truncation, in append order.
  /// An absent journal file reads as empty; corruption is a ParseError.
  Result<std::vector<JournalRecord>> ReadJournal() const;
  /// Crash-recovery read: a torn final record (the half-flushed append of
  /// a killed process) is dropped and the file truncated back to the last
  /// intact record, so the checkpoint survives the very crash it exists
  /// for — and the recovery reports exactly what the tear cost. Mid-stream
  /// corruption is still a ParseError.
  Result<JournalRecovery> RecoverJournal();
  /// Drops every journal record (after a fresh snapshot subsumed them).
  Status TruncateJournal();

  // -- Online compaction -------------------------------------------------------
  //
  // Folds the frozen journal into the next snapshot generation while
  // appends continue. The caller (Engine) serializes BeginCompaction /
  // PublishCompaction / appends behind its store mutex and runs FoldFrozen
  // off-lock. Crash-safety: every step is an atomic framed write
  // (tmp + fsync + rename) or an in-memory rotation, and recovery resolves
  // generations from the MANIFEST — so a kill at any byte of any step
  // recovers to either the old or the new generation, never a mix:
  //
  //   after rotation only      -> MANIFEST still says g; both journal.<g>
  //                               and journal.<g+1> replay over snapshot.<g>
  //   mid snapshot.<g+1> write -> torn tmp never renamed; as above
  //   snapshot.<g+1> written,  -> MANIFEST still says g; the orphan
  //   MANIFEST not             .  snapshot.<g+1> is atomically overwritten
  //                               by the next publish
  //   MANIFEST written,        -> recovery is at g+1 (journal.<g> records
  //   cleanup not              .  are already folded in); stale gen-g files
  //                               are ignored and swept by the next publish
  //
  // Fault points (common/fault.h) fire between the steps:
  // store.compaction.{rotate,before_snapshot,after_snapshot,after_manifest,
  // before_cleanup}, plus store.frame.mid_write inside each atomic file
  // write (store::WriteFileAtomic).

  /// Rotates the journal: future appends go to generation gen+1, freezing
  /// the gen-g journal for folding. `has_work` is false when the frozen
  /// journal is absent/empty. Idempotent across a crashed prior compaction
  /// (an existing gen+1 journal is simply kept as the active one).
  Result<CompactionPlan> BeginCompaction();

  /// Reads snapshot.<from_gen> plus the frozen journal and folds them with
  /// ApplyJournal (so a record a restore would reject fails the fold too,
  /// and nothing is published). Touches only plan fields and immutable
  /// state, so it is safe to run concurrently with appends (which go to
  /// to_gen's journal). A torn frozen-journal tail is dropped (its records were
  /// never acknowledged); mid-stream corruption is a ParseError — run
  /// Scrub() first.
  Result<Snapshot> FoldFrozen(const CompactionPlan& plan) const;

  /// Publishes the folded snapshot: writes snapshot.<to_gen>, lands the
  /// MANIFEST, then removes every older generation's files. Returns false
  /// (benign abort, nothing written) when the mutation epoch moved since
  /// the plan — a full SaveCheckpoint or a concurrent compaction of the
  /// same generation superseded this one.
  Result<bool> PublishCompaction(const CompactionPlan& plan,
                                 const Snapshot& folded);

  // -- Scrub -------------------------------------------------------------------

  /// Verifies every snapshot chunk and journal record of the current
  /// generation, quarantines damaged extents, and rewrites the damaged
  /// files without them (store::WriteFileAtomic), so a following strict load
  /// succeeds with the surviving state. A triangle is a prefix of rows, so
  /// a damaged chunk truncates its measure to the rows before it and the
  /// measure's later chunks are dropped too. A corrupt MANIFEST is rebuilt from
  /// the highest readable snapshot generation; without a MANIFEST there is
  /// no checkpoint, so only the journal is checked. Core snapshot damage
  /// (the query log) cannot be partially salvaged: it is left untouched
  /// (`snapshot_unreadable`) and strict loads keep failing typed — never a
  /// wrong matrix.
  Result<ScrubReport> Scrub();

  // -- Shards ----------------------------------------------------------------

  /// Exports one shard of a sharded build: the manifest plus triangle rows
  /// [row_begin, row_end) of `partial`, as a checksummed "DPEH" frame of
  /// version kShardFormatVersion. InvalidArgument if the manifest is
  /// self-inconsistent (index >= count, rows outside [0, n]) or `partial`
  /// has fewer than row_end rows.
  Status WriteShard(const ShardManifest& manifest,
                    const distance::DistanceMatrix& partial);
  /// Reads shard `shard_index` of `shard_count` for `matrix` back,
  /// validating frame magic/version/checksum, manifest identity against the
  /// requested coordinates, and the payload against the cells the
  /// manifest's rows hold (before allocating them). NotFound for an absent
  /// shard; ParseError on corruption, including a frame of another format
  /// version.
  Result<ShardFile> ReadShard(const std::string& matrix, uint32_t shard_index,
                              uint32_t shard_count) const;
  /// True if the shard file exists on disk (says nothing about validity —
  /// a torn export still "exists"; ReadShard decides). The driver's cheap
  /// has-it-landed poll.
  bool HasShard(const std::string& matrix, uint32_t shard_index,
                uint32_t shard_count) const;
  /// Deletes a shard file (a corrupt export being discarded for recompute,
  /// or post-merge cleanup). OK if it was already absent — the discard
  /// path races the writer that produced the corruption.
  Status RemoveShard(const std::string& matrix, uint32_t shard_index,
                     uint32_t shard_count);

 private:
  explicit MatrixStore(std::string dir) : dir_(std::move(dir)) {}

  std::string SnapshotPath() const;  ///< current generation's snapshot
  std::string JournalPath() const;   ///< active generation's journal
  std::string SnapshotPathForGen(uint64_t gen) const;
  std::string JournalPathForGen(uint64_t gen) const;
  std::string ManifestPath() const;
  std::string ShardPath(const std::string& matrix, uint32_t shard_index,
                        uint32_t shard_count) const;
  /// True if MANIFEST.dpe exists, readable or not: a checkpoint was
  /// committed in this directory.
  bool HasManifest() const;
  /// Snapshot of generation `gen`; NotFound without a MANIFEST.
  Result<Snapshot> ReadSnapshotForGen(uint64_t gen) const;
  Result<JournalRecovery> ReadJournalImpl(bool recover_torn_tail) const;
  /// Reads MANIFEST (or scans for the highest readable snapshot when the
  /// manifest is corrupt) and sets gen_ / journal_gen_. Called on open.
  void ResolveGenerations();
  Status WriteSnapshotToPath(const std::string& path,
                             const Snapshot& snapshot) const;
  Status WriteManifest(const CompactionManifest& manifest) const;
  /// Removes snapshot/journal files of every generation < keep_gen.
  void SweepOldGenerations(uint64_t keep_gen) const;

  std::string dir_;
  FsyncPolicy fsync_policy_ = FsyncPolicy::kOnCheckpoint;
  uint64_t gen_ = 0;          ///< current snapshot generation
  uint64_t journal_gen_ = 0;  ///< active journal generation (gen_ or gen_+1)
  uint64_t mutation_epoch_ = 0;
  bool manifest_ok_ = true;   ///< false: MANIFEST was corrupt at open
};

}  // namespace dpe::store

#endif  // DPE_STORE_MATRIX_STORE_H_
