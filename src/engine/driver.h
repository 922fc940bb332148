// Fault-tolerant multi-host shard driver: the coordination layer that turns
// the deterministic ShardPlan (engine/shard.h) into a build that survives
// workers dying, wedging, or racing each other.
//
// The paper's O(n²) encrypted distance matrix is the cost center, and the
// deployment shape the related work assumes (distance computation farmed to
// semi-trusted, semi-*reliable* third-party hosts) means the driver must
// treat worker death as routine, not exceptional. Three properties of the
// existing shard substrate make that cheap:
//
//   - the plan is derived, not assigned: every participant computes the
//     identical PlanShards(n, k) from two integers, so there is no
//     assignment state to replicate — only *exclusion* (don't have two
//     hosts burn CPU on the same range) and *detection* (notice a range's
//     owner died);
//   - shard exports are idempotent and bit-identical: two workers that both
//     compute shard 3 write byte-identical frames via unique-tmp + rename,
//     so a lost race costs electricity, never correctness;
//   - shard files are CRC-framed: a worker killed mid-export leaves no file
//     or a torn tmp no reader ever opens, and a file damaged any other way
//     reads as a typed ParseError — each is recovered by recomputing.
//
// Coordination therefore reduces to *leases* over shard indices:
//
//   acquire   O_CREAT|O_EXCL create of <dir>/shard-<matrix>-<i>of<k>.lease
//             — the filesystem's atomicity is the lock; the file carries
//             one line: "dpe-lease host=<h> pid=<p> epoch=<e> renewals=<r>"
//   renew     rewrite the line with renewals+1 (bumps mtime) every
//             ttl_ms / 10 — the holder's liveness signal
//   expire    mtime older than ttl_ms — the holder is presumed dead or
//             wedged; anyone may reclaim (unlink) and race a fresh
//             O_EXCL acquire with epoch+1 (work stealing)
//   release   unlink by the holder after its shard file landed
//
// Lease *content* is informational (the /stats lease table, debugging);
// correctness rides only on O_EXCL-create atomicity and mtime freshness, so
// a torn or garbled lease line never confuses the protocol.
//
// The driver (coordinator) polls the store and merges shard files
// *incrementally* as they land — no barrier on all k — while watching
// lease freshness: an expired lease is reclaimed (driver.lease_expiries) so
// surviving workers steal the range, and ranges nobody claims within a
// grace period are self-finished by the driver itself, one per poll round,
// so the build completes even if every worker dies (the degraded
// single-process mode). A dead or wedged worker therefore stalls its range
// at most ttl_ms + one poll-backoff cap. A worker and a self-finishing
// driver take the same leased-shard step once they win a lease: heartbeat,
// ShardWorker::Run, release.
//
// Crash injection (common/fault.h) hooks the worker loop at named points —
// worker.preacquire, worker.acquired, worker.export, plus the store's
// store.frame.mid_write — so the four fault modes (die-before-export,
// die-mid-frame-write, wedge-without-heartbeat, double-acquire races) are
// scripted deterministically by bench_multihost and the driver tests.

#ifndef DPE_ENGINE_DRIVER_H_
#define DPE_ENGINE_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/shard.h"

namespace dpe::engine {

/// One shard's lease as observed on the board — the /stats lease-table row.
struct LeaseInfo {
  uint32_t shard_index = 0;
  bool held = false;        ///< a lease file exists
  bool fresh = false;       ///< and its heartbeat is within TTL
  std::string holder_host;  ///< from the lease line; "" if unparseable
  int64_t holder_pid = 0;
  uint64_t epoch = 0;       ///< bumped on every steal
  uint64_t renewals = 0;    ///< heartbeat count claimed by the line
  uint64_t cells = 0;       ///< matrix cells the holder reports computed
  int64_t age_ms = 0;       ///< since last renewal (mtime)
};

/// Mutual exclusion + liveness over the shard indices of one build, kept in
/// lease files next to the shard files they guard: O_EXCL-create atomicity
/// makes TryAcquire exclusive across processes (at most one caller wins a
/// shard until it is released or expires), mtime is the freshness signal.
/// All methods are thread-safe (the heartbeat thread renews while the
/// worker loop acquires and /stats snapshots).
class LeaseBoard {
 public:
  struct Options {
    std::string dir;       ///< the store directory (created by the store)
    std::string matrix;    ///< logical matrix name, e.g. "token"
    uint32_t shard_count = 0;
    int ttl_ms = 10000;    ///< heartbeat older than this = presumed dead
    /// Identity written into lease lines; "" = gethostname().
    std::string host;
  };

  /// Heap-allocated because the board is shared across threads (worker
  /// loop, heartbeats, /stats snapshots) and the mutex pins its address.
  static Result<std::unique_ptr<LeaseBoard>> Open(const Options& options);

  /// Tries to take `shard`'s lease: a fresh acquire, or a steal of an
  /// expired one (epoch+1). False = someone else holds it and is live.
  /// Errors only for environmental failures (permissions, I/O).
  Result<bool> TryAcquire(uint32_t shard) EXCLUDES(mu_);

  /// Heartbeat: re-asserts a lease this process holds. OK even if the
  /// lease was stolen meanwhile (the export path is idempotent, so a
  /// resurrected holder is harmless — it re-creates the lease and both
  /// holders' exports are bit-identical).
  Status Renew(uint32_t shard) EXCLUDES(mu_);

  /// Drops a lease this process holds (shard exported, or abandoning).
  /// OK if already gone.
  Status Release(uint32_t shard) EXCLUDES(mu_);

  /// Progress report: how many matrix cells the holder has computed so far
  /// on `shard`. Purely informational (the /stats lease table): the next
  /// Renew publishes it, and it never affects lease correctness.
  void ReportProgress(uint32_t shard, uint64_t cells) EXCLUDES(mu_);

  /// Unlinks `shard`'s lease if it exists AND is expired, without taking
  /// it — the coordinator's reclaim, which frees the range for any worker
  /// (or the coordinator itself) to re-acquire. True if a lease was
  /// actually reclaimed.
  Result<bool> ReclaimExpired(uint32_t shard) EXCLUDES(mu_);

  /// The current lease table, one row per shard index.
  Result<std::vector<LeaseInfo>> Snapshot() const EXCLUDES(mu_);

  /// The lease file path for `shard` — exposed for the corruption sweep
  /// tests, which truncate lease files at every byte.
  std::string LeasePath(uint32_t shard) const;

  /// The freshness horizon: a lease not renewed for this long is presumed
  /// dead. Holders renew every ttl_ms / 10, and the driver derives its
  /// default claim grace from it.
  int ttl_ms() const { return options_.ttl_ms; }

 private:
  explicit LeaseBoard(Options options);

  struct Held {
    uint64_t epoch = 1;
    uint64_t renewals = 0;
    uint64_t cells = 0;  ///< last progress report; published by Renew
  };

  /// Writes the lease line for `shard` to an fd-opened file.
  Status WriteLine(int fd, uint32_t shard, const Held& held) const;

  Options options_;
  mutable Mutex mu_;
  /// Shards this process believes it holds (epoch + renewal count).
  std::unordered_map<uint32_t, Held> held_ GUARDED_BY(mu_);
};

/// RAII heartbeat: renews one held lease every interval on a background
/// thread until stopped or destroyed. Stop() joins; renew failures are
/// counted, not fatal (an unrenewable lease just expires — the protocol's
/// safe direction).
class LeaseHeartbeat {
 public:
  /// `progress` (optional, not owned, must outlive the heartbeat) is read
  /// each beat and forwarded via board->ReportProgress before the renew, so
  /// the lease line carries the holder's latest cell count.
  LeaseHeartbeat(LeaseBoard* board, uint32_t shard, int interval_ms,
                 const std::atomic<uint64_t>* progress = nullptr);
  ~LeaseHeartbeat();

  LeaseHeartbeat(const LeaseHeartbeat&) = delete;
  LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  void Stop() EXCLUDES(mu_);
  uint64_t renewals() const { return renewals_.load(std::memory_order_relaxed); }

 private:
  void Loop() EXCLUDES(mu_);

  LeaseBoard* board_;
  uint32_t shard_;
  int interval_ms_;
  const std::atomic<uint64_t>* progress_;  ///< not owned; may be null
  std::atomic<uint64_t> renewals_{0};
  Mutex mu_;
  CondVar cv_;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::thread thread_;  ///< last: uses the members above
};

/// The knobs of a sharded build, read by both roles. Every participant
/// must use the same ttl_ms, the protocol's liveness horizon. It is the
/// board's: RunWorkerLoop and DriveShards read it from the board they are
/// given, which Engine opens with this value. Lease holders renew every
/// ttl_ms / 10 (at least 1 ms), so the heartbeat always stays well under
/// the TTL.
struct MultiHostOptions {
  int ttl_ms = 10000;  ///< lease freshness horizon
  /// How long a never-leased range waits for real workers before the
  /// coordinator finishes it itself. < 0 = the TTL (give workers one TTL's
  /// head start); 0 = immediately (coordinator-only builds).
  int claim_grace_ms = -1;
  /// Worker: give up waiting for peers after this long without progress
  /// and leave the tail to the coordinator. <= 0 = wait forever (not
  /// advisable outside tests).
  int idle_timeout_ms = 60000;
  /// Coordinator: no merge progress for this long fails the drive with
  /// kExecutionError. <= 0 = no watchdog.
  int stall_timeout_ms = 120000;
};

/// Where a worker loop or a drive computes and reports — plumbing, not
/// policy. Nothing is owned.
struct ShardRuntime {
  common::ThreadPool* pool = nullptr;       ///< null = serial
  obs::MetricsRegistry* metrics = nullptr;  ///< null = process default
  obs::TraceBuffer* trace = nullptr;        ///< may be null
  /// The worker loop's crash-injection scope: null = the process-global
  /// injector (FaultInjector::Global(), armed only by a forked worker
  /// itself). In-process tests pass their own so a "worker" thread's faults
  /// do not fire elsewhere. A drive fires no fault points.
  common::FaultInjector* faults = nullptr;
};

/// What one worker process/thread accomplished.
struct WorkerReport {
  uint32_t computed = 0;  ///< shards this worker computed and exported
};

/// The worker side of the protocol: sweep the plan's shards, skip ones
/// whose file already landed, lease-acquire the rest (stealing expired
/// leases), compute + export under a heartbeat, release. Returns when
/// every shard file exists, or after options.idle_timeout_ms without
/// progress. Fault points: worker.preacquire (before each TryAcquire),
/// worker.acquired (after a successful acquire, BEFORE the heartbeat
/// starts — a wedge here is the wedge-without-heartbeat mode),
/// worker.export (once the heartbeat runs, before the compute+export — a
/// die here is the die-before-export mode, with the lease held).
Result<WorkerReport> RunWorkerLoop(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    store::MatrixStore& store, LeaseBoard& board,
    const MultiHostOptions& options, const ShardRuntime& runtime = {});

/// The drive's outcome: the merged matrix plus the fault-handling ledger.
struct DriveReport {
  distance::DistanceMatrix matrix;
  uint32_t merged_from_workers = 0;  ///< shards exported by workers
  uint32_t self_finished = 0;        ///< shards the coordinator computed
  uint32_t lease_expiries = 0;       ///< dead/wedged holders reclaimed
  uint32_t discards = 0;             ///< corrupt exports discarded
  uint32_t poll_rounds = 0;
};

/// The coordinator: polls the store, merges shard files incrementally as
/// they land (validating each manifest against the plan, then copying its
/// rows into place; a bad one is discarded and recomputed), reclaims
/// expired leases so survivors can steal, and self-finishes unclaimed
/// ranges — degrading to a single-process build if every worker dies.
/// Merging a finished build is a drive over a directory where every shard
/// file already landed. The merged matrix is bit-identical to
/// MatrixBuilder::Build over the same inputs.
Result<DriveReport> DriveShards(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    store::MatrixStore& store, LeaseBoard& board,
    const MultiHostOptions& options, const ShardRuntime& runtime = {});

}  // namespace dpe::engine

#endif  // DPE_ENGINE_DRIVER_H_
