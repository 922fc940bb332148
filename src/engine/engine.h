// The batch mining engine — the facade every scaling path goes through.
//
//   Engine e(context);                 // owns a thread pool + distance cache
//   e.SetLog(scenario.log);
//   auto m   = e.BuildMatrix("token");           // parallel, blocked, cached
//   auto km  = e.RunKMedoids("token", {.k = 4});
//   e.AddQuery(q);                               // incremental: only the new
//   auto m2  = e.BuildMatrix("token");           // row is recomputed
//
//   e.SaveCheckpoint("/var/lib/dpe/log-a");      // snapshot log + triangles
//   // ... process restarts ...
//   Engine e2(context);
//   e2.LoadCheckpoint("/var/lib/dpe/log-a");     // resume: triangles back
//   e2.AddQuery(q2);                             // journaled
//   auto m3 = e2.BuildMatrix("token");           // only the new row costs
//
// The cache is one distance::DistanceTriangle per measure: rows [0, r) of
// the matrix that measure last built. A warm build copies those rows out,
// an incremental build computes only rows [r, n), and the same rows are
// what a checkpoint snapshots and the journal appends.
//
// The engine works identically on the owner side (plaintext context) and the
// provider side (encrypted artifacts in the context) — exactly like the
// underlying measures.
//
// One caller drives it: requests run on the caller's thread, one at a time,
// and fan out to the engine's pool only inside a call (the matrix build,
// the k-medoids and DB(p, D) scans, shard work). Besides the caller, the
// telemetry threads and the background compaction task read and compact
// concurrently; the class comment lists which calls they may make.

#ifndef DPE_ENGINE_ENGINE_H_
#define DPE_ENGINE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "engine/driver.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "engine/shard.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/knn.h"
#include "mining/outlier.h"
#include "obs/metrics.h"
#include "obs/rates.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "store/matrix_store.h"

namespace dpe::engine {

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t threads = 0;
  /// Tile edge of the blocked matrix build.
  size_t block = 64;
  /// SIMD kernel backend for the distance hot paths (common/simd.h).
  /// kAuto resolves the DPE_KERNEL_BACKEND env var, then CPU detection
  /// (AVX2 > SSE4.2 > scalar). An explicit value pins the backend for
  /// every build this engine runs; build entry points reject a backend
  /// this CPU cannot run. All backends produce bit-identical distances.
  common::simd::KernelBackend kernel_backend =
      common::simd::KernelBackend::kAuto;
  /// When the persistent store fsyncs (store/codec.h): kNever trades
  /// durability for latency, kOnCheckpoint (default) syncs snapshot/
  /// MANIFEST/shard frames but not journal appends, kAlways also syncs every
  /// journal append. Applied to every store this engine opens.
  store::FsyncPolicy fsync_policy = store::FsyncPolicy::kOnCheckpoint;
  /// Memoize distances across BuildMatrix / Run* calls and query insertions
  /// (one lower triangle per measure). Off: every build computes the full
  /// matrix and nothing is journaled.
  bool enable_cache = true;
  /// Byte budget of the triangles (8 B per cell); 0 = unbounded. When a
  /// build leaves them over budget, whole measures are evicted, least
  /// recently built first; a measure larger than the budget on its own is
  /// returned but not kept.
  size_t cache_max_bytes = 0;
  /// Background checkpoint compaction: when a checkpoint is attached and
  /// the on-disk journal exceeds compaction_trigger_bytes, a task on the
  /// engine's pool folds it into the next snapshot generation while appends
  /// continue (see store::MatrixStore::BeginCompaction for the crash-safety
  /// argument). Off by default — restart cost then grows with the journal.
  bool enable_compaction = false;
  /// Journal size (bytes, frozen + active generations) that triggers a
  /// background compaction cycle. Only meaningful with enable_compaction.
  size_t compaction_trigger_bytes = 1 << 20;
  /// LoadCheckpoint self-healing: when a strict load fails with ParseError
  /// and this is set, the engine runs MatrixStore::Scrub() — quarantining
  /// corrupt extents instead of failing — retries the load once, and
  /// recomputes the lost triangle rows through the normal build path. Off
  /// by default: corruption stays a hard, inspectable error.
  bool scrub_on_load = false;
  /// LoadCheckpoint tolerance for a torn journal tail (the half-flushed
  /// append of a killed process): true (default) drops the torn record,
  /// truncates the file back to the intact prefix and reports the damage;
  /// false fails the load with ParseError so operators who would rather
  /// inspect the file than lose a record can.
  bool tolerate_torn_journal = true;
  /// Capture TraceSpan events into the engine's trace buffer (exportable
  /// as chrome://tracing JSON via Engine::trace().ToChromeJson()). The
  /// DPE_TRACE env var (set and != "0") also turns this on. Counters and
  /// stage timings are recorded either way; tracing never changes results.
  bool trace = false;
  /// Registry for every counter/gauge/histogram this engine records. Null
  /// (default) uses the process-wide obs::MetricsRegistry::Default(), so
  /// the engine's numbers land next to the store/kernel layer's. Tests
  /// inject a private registry for isolation.
  obs::MetricsRegistry* metrics = nullptr;
  /// Embedded telemetry HTTP server (GET-only: /metrics, /healthz, /stats,
  /// /trace). -1 (default) = disabled: no socket is opened and no server
  /// thread starts. 0 = bind an ephemeral port (read it back via
  /// Engine::telemetry_port()). When this is < 0 the DPE_TELEMETRY_PORT
  /// env var (if set to a valid port) takes over, so operators can turn
  /// scraping on without a rebuild. A failed bind logs and counts
  /// telemetry.server_errors but never fails engine construction.
  int telemetry_port = -1;
  /// Bind address for the telemetry server. Loopback by default — exposing
  /// the port beyond the host is an explicit operator decision.
  std::string telemetry_bind = "127.0.0.1";
  /// Push-gateway URL ("http://host:port/path"). Non-empty starts a
  /// MetricsPusher thread POSTing the full Prometheus exposition on an
  /// interval; a dead gateway only ever costs capped-backoff retries and a
  /// telemetry.push_failures counter — pushes never block or fail builds.
  /// Empty (default) consults the DPE_TELEMETRY_PUSH_URL env var.
  std::string telemetry_push_url{};
  int telemetry_push_interval_ms = 5000;
  int telemetry_push_min_backoff_ms = 500;
  int telemetry_push_max_backoff_ms = 30000;
};

/// Lifetime counters of the engine's distance cache, in cells.
struct CacheStats {
  uint64_t hits = 0;       ///< copied out of a triangle
  uint64_t misses = 0;     ///< computed
  uint64_t evictions = 0;  ///< dropped by the byte budget
};

/// What one BuildMatrix call did and where its time went. `stages` covers
/// the distance compute, the copies between the matrix and the measure's
/// triangle, and the journal append — their sum tracks `wall_ms` closely
/// (the remainder is bookkeeping).
struct BuildReport {
  std::string measure;
  size_t n = 0;                 ///< log size at build time
  uint64_t cells_total = 0;     ///< upper-triangle cells, n*(n-1)/2
  uint64_t cells_cached = 0;    ///< copied out of the measure's triangle
  uint64_t cells_computed = 0;  ///< computed fresh this call
  std::string backend;          ///< resolved SIMD kernel backend name
  std::vector<obs::StageTiming> stages;
  double wall_ms = 0.0;
  CacheStats cache;             ///< cache lifetime stats after this build
};

/// What SaveCheckpoint wrote, and where its time went.
struct CheckpointSaveReport {
  uint64_t queries = 0;        ///< log entries in the snapshot
  uint64_t cache_entries = 0;  ///< triangle cells written
  std::vector<obs::StageTiming> stages;  ///< export / write / truncate
  double wall_ms = 0.0;
};

/// What LoadCheckpoint had to do to the journal to complete the restore.
struct CheckpointLoadReport {
  bool journal_tail_truncated = false;  ///< a torn tail was dropped
  uint64_t dropped_journal_records = 0; ///< partial records lost (0 or 1)
  uint64_t dropped_journal_bytes = 0;   ///< bytes trimmed off the journal
  uint64_t queries_restored = 0;        ///< snapshot + journaled queries
  uint64_t journal_records_replayed = 0;  ///< journal records applied
  /// Self-healing (EngineOptions::scrub_on_load) outcome: whether a scrub
  /// pass ran, what it had to quarantine, and how many cells the load then
  /// rebuilt through the normal build path — every row from each measure's
  /// first lost row on, so at least the quarantined cells.
  bool scrubbed = false;
  uint64_t cells_quarantined = 0;
  uint64_t journal_records_quarantined = 0;
  uint64_t cells_recomputed = 0;
  std::vector<obs::StageTiming> stages;  ///< read / parse / restore
  double wall_ms = 0.0;
};

/// DB(p, D) outliers plus the k nearest neighbours of each outlier — the
/// "what is this unusual query close to?" report.
struct OutlierKnnReport {
  mining::OutlierResult outliers;
  /// neighbors[r] = the k nearest neighbours of outliers.outliers[r].
  std::vector<std::vector<size_t>> neighbors;
};

/// Threading contract.
///   - Caller-thread calls run one at a time, never concurrently with each
///     other: SetLog, AddQuery, log(), BuildMatrix, RunKMedoids, RunDbscan,
///     RunHierarchical, RunOutlierKnn, PlanShards, RunShardWorker,
///     DriveShards, SaveCheckpoint, LoadCheckpoint and registry().
///   - Any-thread calls may run on any thread, concurrently with the caller
///     and with each other. The test that runs each alongside caller-thread
///     work:
///       CompactNow:
///         CompactionTest.InterleavedAppendsDuringCompactionStayBitIdentical
///       ClearCache: EngineTest.BuildsRacingClearCacheStayBitIdentical
///       cache_stats, cache_size, cache_bytes_used, checkpoint_attached,
///       checkpoint_generation, last_build_report, log_size, Stats,
///       MetricsText, HealthzJson and trace():
///         EngineTest.AnyThreadReadsRacingLogMutations (every one), and
///         TelemetryE2eTest.ScrapeDuringAndAfterBuildOverRealHttp (through
///         the four telemetry endpoints, over real HTTP)
class Engine {
 public:
  /// `context` is captured by value (it only holds non-owning pointers; the
  /// pointees must outlive the engine).
  explicit Engine(const distance::MeasureContext& context,
                  EngineOptions options = {});
  /// Stops and drains the background compaction task before any member is
  /// torn down (the task captures `this`).
  ~Engine();

  /// Measure name -> factory table; custom measures register here.
  MeasureRegistry& registry() { return registry_; }
  const common::ThreadPool& pool() const { return pool_; }

  // -- Log management --------------------------------------------------------

  /// Replaces the query log (drops the cache — ids restart from 0 — and
  /// detaches any checkpoint store; the new state needs a fresh
  /// SaveCheckpoint).
  void SetLog(std::vector<sql::SelectQuery> log);
  /// Appends one query, keeping all cached pairwise distances valid. With a
  /// checkpoint attached, the query is journaled so a restart replays it.
  Status AddQuery(sql::SelectQuery query);
  size_t log_size() const {
    return log_size_.load(std::memory_order_acquire);
  }
  const std::vector<sql::SelectQuery>& log() const { return queries_; }

  // -- Batch mining API ------------------------------------------------------

  /// Pairwise matrix of the current log under the named measure. Rows the
  /// measure's triangle holds are copied; the rest are computed in
  /// parallel, and the triangle grows to cover them. When
  /// `report` is non-null it receives the build's stage timings and cell
  /// counts (also retrievable afterwards via last_build_report()).
  Result<distance::DistanceMatrix> BuildMatrix(const std::string& measure,
                                               BuildReport* report = nullptr);

  Result<mining::KMedoidsResult> RunKMedoids(
      const std::string& measure, const mining::KMedoidsOptions& options);
  Result<mining::DbscanResult> RunDbscan(const std::string& measure,
                                         const mining::DbscanOptions& options);
  Result<mining::Dendrogram> RunHierarchical(const std::string& measure);
  Result<OutlierKnnReport> RunOutlierKnn(const std::string& measure,
                                         const mining::OutlierOptions& options,
                                         size_t k);

  // -- Sharded builds --------------------------------------------------------
  //
  // The O(n²) matrix build split across processes/hosts that share only the
  // directory `dir` (engine/driver.h): every participant derives the same
  // deterministic plan, leases over shard indices arbitrate who computes
  // what, heartbeats detect dead/wedged workers, and the coordinator merges
  // shard files incrementally — finishing abandoned ranges itself if it
  // must. Merging a finished build is the same DriveShards call over a
  // directory where every shard file already landed. The merged matrix is
  // bit-identical to BuildMatrix.
  //
  //   // on each worker host (any process able to see `dir`):
  //   worker_engine.RunShardWorker("token", k, dir);
  //   // on the coordinator, concurrently:
  //   auto report = coordinator.DriveShards("token", k, dir).value();

  /// Deterministic `shard_count`-way plan over the current log: row ranges
  /// that depend only on the log size and `shard_count`.
  Result<ShardPlan> PlanShards(size_t shard_count) const;

  /// The worker side: sweeps the deterministic k-way plan over this
  /// engine's log, lease-acquiring and exporting shards of `measure` into
  /// `dir` until all k shard files exist (or idle_timeout_ms passes with
  /// peers holding everything). Safe to run on any number of hosts
  /// concurrently; crashed peers' ranges are stolen after ttl_ms.
  Result<WorkerReport> RunShardWorker(const std::string& measure,
                                      size_t shard_count,
                                      const std::string& dir,
                                      const MultiHostOptions& options = {});

  /// The coordinator side: merges shards incrementally as they land
  /// (checking each manifest against the plan, discarding and recomputing
  /// a bad shard), reclaims expired leases, self-finishes abandoned ranges,
  /// and warms the measure's triangle from the merged matrix, journaling
  /// the new rows as a build does. While a drive is active, Stats()/the
  /// /stats endpoint carry its live lease table. Completes even if every
  /// worker dies.
  Result<DriveReport> DriveShards(const std::string& measure,
                                  size_t shard_count, const std::string& dir,
                                  const MultiHostOptions& options = {});

  // -- Persistence -----------------------------------------------------------

  /// Checkpoints the full incremental-mining state (query log as canonical
  /// SQL + every measure's triangle) into `dir`, truncates the journal, and
  /// attaches the store: subsequent AddQuery calls and freshly computed
  /// matrix rows are journaled incrementally. `report` (optional) receives
  /// what was written and the per-stage timings.
  Status SaveCheckpoint(const std::string& dir,
                        CheckpointSaveReport* report = nullptr);

  /// Restores the state a SaveCheckpoint (plus any journal written since)
  /// captured in `dir`: the journal is replayed over the snapshot
  /// (store::ApplyJournal), the query log is re-parsed, the triangles
  /// become the cache, and the store stays attached for further
  /// journaling. NotFound if `dir` holds no committed checkpoint (no
  /// MANIFEST.dpe); ParseError on corruption (never UB). A torn journal tail
  /// is recovered or rejected per EngineOptions::tolerate_torn_journal; when
  /// `report` is non-null it receives what the recovery dropped.
  Status LoadCheckpoint(const std::string& dir,
                        CheckpointLoadReport* report = nullptr);

  bool checkpoint_attached() const EXCLUDES(store_mu_) {
    MutexLock lock(store_mu_);
    return store_ != nullptr;
  }

  /// Runs one compaction cycle synchronously: rotates the journal, folds
  /// the frozen generation into the next snapshot, publishes it via the
  /// MANIFEST, and sweeps the old generation. Returns true if a new
  /// generation was published, false if there was nothing to fold or a
  /// concurrent checkpoint superseded the fold. NotFound without an
  /// attached checkpoint. With EngineOptions::enable_compaction the engine
  /// runs this automatically on its pool when the journal outgrows
  /// compaction_trigger_bytes.
  Result<bool> CompactNow() EXCLUDES(store_mu_);

  /// Current snapshot generation of the attached store (0 when none is
  /// attached, or before any compaction published).
  uint64_t checkpoint_generation() const EXCLUDES(store_mu_) {
    MutexLock lock(store_mu_);
    return store_ != nullptr ? store_->generation() : 0;
  }

  // -- Cache introspection ---------------------------------------------------

  CacheStats cache_stats() const EXCLUDES(cache_mu_);
  /// Cells held across every measure's triangle.
  size_t cache_size() const EXCLUDES(cache_mu_);
  /// Real bytes the triangles hold: 8 per cell.
  size_t cache_bytes_used() const EXCLUDES(cache_mu_);
  /// Drops every triangle; the lifetime counters keep counting.
  void ClearCache() EXCLUDES(cache_mu_);

  // -- Observability ---------------------------------------------------------

  /// The registry this engine records into (EngineOptions::metrics or the
  /// process default).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// The engine's span buffer. Enabled via EngineOptions::trace or
  /// DPE_TRACE; trace().ToChromeJson() exports it for chrome://tracing.
  obs::TraceBuffer& trace() { return trace_; }
  const obs::TraceBuffer& trace() const { return trace_; }

  /// Copy of the most recent BuildMatrix report (empty before any build).
  BuildReport last_build_report() const EXCLUDES(report_mu_);

  /// Full exportable report: a snapshot of every metric (thread-pool and
  /// cache gauges refreshed first), the last build's stage timings, and
  /// info labels (resolved kernel backend, thread count, cache hit rate).
  obs::StatsReport Stats() const;

  // -- Live telemetry --------------------------------------------------------

  /// The full Prometheus exposition this engine serves at /metrics and
  /// pushes to the gateway: Stats() rendered as text, plus the rolling-
  /// window `dpe_*_per_sec` gauges (each call ticks the rate window).
  std::string MetricsText() const;

  /// The /healthz payload: liveness plus last-build status, JSON.
  std::string HealthzJson() const;

  /// Bound scrape port, or -1 when the telemetry server is off (port
  /// option/env unset, or the bind failed).
  int telemetry_port() const { return telemetry_ ? telemetry_->port() : -1; }
  const obs::TelemetryServer* telemetry_server() const {
    return telemetry_.get();
  }
  const obs::MetricsPusher* metrics_pusher() const { return pusher_.get(); }

 private:
  /// Instantiates (once) and returns the named measure. Instances are kept
  /// alive for the engine's lifetime so measure-internal memoization (the
  /// result measure's tuple-set cache) spans calls.
  Result<const distance::QueryDistanceMeasure*> MeasureFor(
      const std::string& name);

  /// One role of a sharded build: RunWorkerLoop or engine::DriveShards,
  /// which take the same parameters.
  template <typename Report>
  using ShardRole = Result<Report> (*)(
      const std::string&, const std::vector<sql::SelectQuery>&,
      const distance::QueryDistanceMeasure&, const distance::MeasureContext&,
      const ShardPlan&, store::MatrixStore&, LeaseBoard&,
      const MultiHostOptions&, const ShardRuntime&);

  /// The setup RunShardWorker and DriveShards share: looks the measure up,
  /// plans `shard_count` shards over the log, opens the store (with the
  /// engine's fsync policy) and the lease board in `dir`, and lists the
  /// board in /stats while `role` runs on the engine's pool, metrics and
  /// trace.
  template <typename Report>
  Result<Report> RunShardRole(ShardRole<Report> role,
                              const std::string& measure_name,
                              size_t shard_count, const std::string& dir,
                              const MultiHostOptions& options)
      EXCLUDES(drive_mu_);

  /// The staged body of BuildMatrix over the engine's log and builder:
  /// copy the triangle's rows out, compute the rest, extend the triangle,
  /// journal — each stage timed into `report.stages` (and the
  /// build.stage_ms histograms / trace buffer).
  Result<distance::DistanceMatrix> BuildMatrixStaged(
      const distance::QueryDistanceMeasure& measure,
      const std::string& measure_name, BuildReport& report);

  /// Journals rows [max(first, watermark), m.size()) of `m` as row records
  /// and raises the measure's watermark to m.size(). No-op when no store is
  /// attached.
  Status JournalRows(const std::string& measure_name, size_t first,
                     const distance::DistanceMatrix& m) EXCLUDES(store_mu_);

  /// Extends `measure_name`'s triangle to m.size() rows out of `m`, marks
  /// it the most recently built, and applies the byte budget.
  void CacheRowsLocked(const std::string& measure_name,
                       const distance::DistanceMatrix& m) REQUIRES(cache_mu_);

  /// Evicts whole triangles, least recently built first, until they fit
  /// cache_max_bytes (no-op when unbounded).
  void EvictToBudgetLocked() REQUIRES(cache_mu_);

  /// Schedules a background compaction cycle on the pool when one is due
  /// (compaction enabled, store attached, journal past the trigger, no
  /// cycle already in flight, not shutting down).
  void MaybeScheduleCompactionLocked() REQUIRES(store_mu_);

  /// The pool-side wrapper around CompactNow: counts failures, then
  /// re-checks the trigger (appends may have outgrown it again mid-fold).
  void CompactionCycle() EXCLUDES(store_mu_);

  EngineOptions options_;
  distance::MeasureContext context_;
  /// Declared before builder_: the builder's options capture these.
  obs::MetricsRegistry* metrics_;  ///< never null after construction
  obs::TraceBuffer trace_;
  MeasureRegistry registry_ = MeasureRegistry::WithBuiltins();
  common::ThreadPool pool_;
  MatrixBuilder builder_;
  /// The distance cache: one triangle per measure, the order they were
  /// last built in (least recent first — what the byte budget evicts), and
  /// the lifetime counters.
  mutable Mutex cache_mu_;
  std::map<std::string, distance::DistanceTriangle> triangles_
      GUARDED_BY(cache_mu_);
  std::vector<std::string> build_order_ GUARDED_BY(cache_mu_);
  CacheStats cache_stats_ GUARDED_BY(cache_mu_);
  mutable Mutex report_mu_;
  BuildReport last_build_ GUARDED_BY(report_mu_);
  /// The log and the measure instances belong to the caller thread.
  /// log_size_ mirrors queries_.size() for the any-thread readers.
  std::vector<sql::SelectQuery> queries_;
  std::atomic<size_t> log_size_{0};
  std::map<std::string, std::unique_ptr<distance::QueryDistanceMeasure>>
      measures_;
  /// Guards store_ itself (attach/detach), the watermarks, and serializes
  /// journal appends.
  mutable Mutex store_mu_;
  /// shared_ptr: a background compaction holds a reference across its
  /// off-lock fold, so SetLog/SaveCheckpoint can swap the attached store
  /// without racing it (the publish step re-checks pointer identity under
  /// the lock and aborts if the store changed).
  std::shared_ptr<store::MatrixStore> store_ GUARDED_BY(store_mu_);
  /// Per-measure high-water mark: rows below it are already persisted
  /// (snapshot or journal) for that measure. Save and load set it to each
  /// triangle's rows(); without a byte budget it always equals rows(), and
  /// after a budget eviction it keeps recomputed rows from being journaled
  /// again. A measure first built after the checkpoint starts at 0 and
  /// journals its full triangle exactly once.
  std::map<std::string, size_t> journal_watermarks_ GUARDED_BY(store_mu_);
  /// The lease board of the drive (or worker loop) currently running, if
  /// any — what the /stats lease table snapshots. shared_ptr because the
  /// telemetry thread may render the table while the drive finishes.
  mutable Mutex drive_mu_;
  std::shared_ptr<LeaseBoard> active_board_ GUARDED_BY(drive_mu_);
  std::string active_drive_matrix_ GUARDED_BY(drive_mu_);
  /// Background-compaction lifecycle: at most one cycle in flight, and the
  /// destructor raises stop_ before draining the pool so a mid-fold cycle
  /// bails out instead of publishing during teardown.
  std::atomic<bool> compaction_inflight_{false};
  std::atomic<bool> compaction_stop_{false};
  /// Telemetry lifecycle — declared LAST so it is destroyed FIRST: the
  /// scrape and push threads call into everything above (and the dtor
  /// also resets them explicitly before draining the pool, belt and
  /// braces). RollingRates is internally synchronized, so concurrent
  /// scrape + push ticks just interleave.
  mutable obs::RollingRates rates_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  std::unique_ptr<obs::MetricsPusher> pusher_;
};

}  // namespace dpe::engine

#endif  // DPE_ENGINE_ENGINE_H_
