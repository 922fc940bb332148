#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

#include "obs/json.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace dpe::engine {

Engine::Engine(const distance::MeasureContext& context, EngineOptions options)
    : options_(options),
      context_(context),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Default()),
      pool_(options.threads),
      builder_(&pool_, MatrixBuilderOptions{options.block, metrics_, &trace_}) {
  // The engine's backend choice rides in the context every build receives;
  // builders validate it (loudly) before computing anything. An explicit
  // engine option wins; options.kernel_backend == kAuto (the default)
  // leaves a backend the caller already forced on the context untouched.
  if (options.kernel_backend != common::simd::KernelBackend::kAuto) {
    context_.kernel_backend = options.kernel_backend;
  }
  bool trace_on = options.trace;
  if (const char* env = std::getenv("DPE_TRACE");
      env != nullptr && *env != '\0' && std::string_view(env) != "0") {
    trace_on = true;
  }
  trace_.set_enabled(trace_on);

  // Telemetry is best-effort by contract: a taken port or a bad push URL
  // logs and counts, but never fails engine construction — mining must
  // work identically with telemetry on, off, or broken.
  int scrape_port = options_.telemetry_port;
  if (scrape_port < 0) {
    if (const char* env = std::getenv("DPE_TELEMETRY_PORT");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && parsed >= 0 && parsed <= 65535) {
        scrape_port = static_cast<int>(parsed);
      }
    }
  }
  if (scrape_port >= 0) {
    obs::TelemetryServer::Options sopts;
    sopts.bind_address = options_.telemetry_bind;
    sopts.port = scrape_port;
    sopts.metrics = metrics_;
    obs::TelemetryEndpoints endpoints;
    endpoints.metrics_text = [this] { return MetricsText(); };
    endpoints.healthz_json = [this] { return HealthzJson(); };
    endpoints.stats_json = [this] { return Stats().ToJson(); };
    endpoints.trace_json = [this] { return trace_.ToChromeJson(); };
    std::string error;
    telemetry_ =
        obs::TelemetryServer::Start(sopts, std::move(endpoints), &error);
    if (telemetry_ == nullptr) {
      std::fprintf(stderr, "dpe: telemetry server disabled: %s\n",
                   error.c_str());
      metrics_->counter("telemetry.server_errors").Increment();
    }
  }
  std::string push_url = options_.telemetry_push_url;
  if (push_url.empty()) {
    if (const char* env = std::getenv("DPE_TELEMETRY_PUSH_URL");
        env != nullptr && *env != '\0') {
      push_url = env;
    }
  }
  if (!push_url.empty()) {
    obs::MetricsPusher::Options popts;
    popts.url = push_url;
    popts.interval_ms = options_.telemetry_push_interval_ms;
    popts.min_backoff_ms = options_.telemetry_push_min_backoff_ms;
    popts.max_backoff_ms = options_.telemetry_push_max_backoff_ms;
    popts.metrics = metrics_;
    std::string error;
    pusher_ = obs::MetricsPusher::Start(
        popts, [this] { return MetricsText(); }, &error);
    if (pusher_ == nullptr) {
      std::fprintf(stderr, "dpe: metrics pusher disabled: %s\n",
                   error.c_str());
      metrics_->counter("telemetry.server_errors").Increment();
    }
  }
}

Engine::~Engine() {
  // Raise the compaction stop flag before draining the pool: an in-flight
  // cycle checks it between steps and bails instead of publishing into a
  // store that is about to be torn down (clean shutdown mid-compaction).
  compaction_stop_.store(true, std::memory_order_release);
  // Telemetry threads stop first: their callbacks walk the registry, the
  // pool, the triangles and the trace buffer — everything torn down below.
  pusher_.reset();
  telemetry_.reset();
  // The compaction task captures `this`; members destruct in reverse
  // declaration order, so without this barrier a still-queued cycle could
  // touch the store after it is gone.
  pool_.Wait();
}

void Engine::SetLog(std::vector<sql::SelectQuery> log) {
  queries_ = std::move(log);
  log_size_.store(queries_.size(), std::memory_order_release);
  ClearCache();
  MutexLock lock(store_mu_);
  store_.reset();
  journal_watermarks_.clear();
}

Status Engine::AddQuery(sql::SelectQuery query) {
  // Journal first, mutate second: if the append fails (disk full, ...) the
  // in-memory log and the journal must not diverge — a retry would
  // otherwise duplicate the query or leave an index gap that bricks the
  // checkpoint on the next load.
  {
    MutexLock lock(store_mu_);
    if (store_ != nullptr) {
      DPE_RETURN_NOT_OK(store_->AppendQuery(
          static_cast<uint32_t>(queries_.size()), sql::ToSql(query)));
      MaybeScheduleCompactionLocked();
    }
  }
  queries_.push_back(std::move(query));
  log_size_.store(queries_.size(), std::memory_order_release);
  return Status::OK();
}

Result<const distance::QueryDistanceMeasure*> Engine::MeasureFor(
    const std::string& name) {
  auto it = measures_.find(name);
  if (it == measures_.end()) {
    DPE_ASSIGN_OR_RETURN(auto measure, registry_.Create(name));
    it = measures_.emplace(name, std::move(measure)).first;
  }
  return it->second.get();
}

Result<distance::DistanceMatrix> Engine::BuildMatrix(
    const std::string& measure_name, BuildReport* report) {
  DPE_ASSIGN_OR_RETURN(const distance::QueryDistanceMeasure* measure,
                       MeasureFor(measure_name));
  BuildReport local;
  local.measure = measure_name;
  local.n = queries_.size();
  local.cells_total =
      local.n < 2 ? 0 : static_cast<uint64_t>(local.n) * (local.n - 1) / 2;

  // Crypto/cryptdb spans fired under this build (measure Prepare work,
  // homomorphic aggregate folds) land in this engine's buffer.
  obs::ScopedAmbientTrace ambient(&trace_);
  obs::TraceSpan api_span(
      "engine.build_matrix", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "build_matrix"},
                                             {"measure", measure_name}}));
  Result<distance::DistanceMatrix> result =
      BuildMatrixStaged(*measure, measure_name, local);
  api_span.End();

  local.wall_ms = api_span.elapsed_ms();
  local.backend = common::simd::BackendName(
      common::simd::KernelsFor(context_.kernel_backend).backend);
  local.cache = cache_stats();
  {
    MutexLock lock(report_mu_);
    last_build_ = local;
  }
  if (report != nullptr) *report = std::move(local);
  return result;
}

Result<distance::DistanceMatrix> Engine::BuildMatrixStaged(
    const distance::QueryDistanceMeasure& measure,
    const std::string& measure_name, BuildReport& report) {
  const size_t n = queries_.size();
  auto stage_hist = [&](const char* stage) -> obs::Histogram& {
    return metrics_->histogram("build.stage_ms", {{"stage", stage}});
  };

  if (!options_.enable_cache) {
    obs::TraceSpan compute_span("build.compute", &trace_,
                                &stage_hist("compute"));
    Result<distance::DistanceMatrix> m =
        builder_.Build(queries_, measure, context_);
    compute_span.End();
    report.stages.push_back({"compute", compute_span.elapsed_ms()});
    if (m.ok()) report.cells_computed = report.cells_total;
    return m;
  }

  // Copy out the rows [0, r) the measure's triangle already holds.
  obs::TraceSpan copy_out_span("build.copy", &trace_);
  distance::DistanceMatrix m;
  size_t r = 0;
  {
    MutexLock lock(cache_mu_);
    if (auto it = triangles_.find(measure_name); it != triangles_.end()) {
      r = std::min(it->second.rows(), n);
      m = distance::DistanceMatrix(n);
      distance::DistanceTriangle::CopyRows(it->second.Rows(0, r), 0, r, &m);
    }
  }
  copy_out_span.End();
  report.cells_cached = distance::DistanceTriangle::CellCount(r);
  report.cells_computed = report.cells_total - report.cells_cached;

  // Compute the rest; a warm build computes nothing. With no triangle to
  // copy, the matrix is allocated here, so a cold build's copy stage stays
  // the triangle extension alone.
  if (r < n) {
    obs::TraceSpan compute_span("build.compute", &trace_,
                                &stage_hist("compute"));
    if (m.size() != n) m = distance::DistanceMatrix(n);
    DPE_RETURN_NOT_OK(
        builder_.ComputeRows(queries_, measure, context_, r, n, &m));
    compute_span.End();
    report.stages.push_back({"compute", compute_span.elapsed_ms()});
  }

  // Extend the triangle to n rows out of the result. Whatever happened to
  // it meanwhile (a ClearCache from another thread), it ends up holding
  // rows [0, n) with no gap.
  obs::TraceSpan copy_in_span("build.copy", &trace_);
  {
    MutexLock lock(cache_mu_);
    cache_stats_.hits += report.cells_cached;
    cache_stats_.misses += report.cells_computed;
    CacheRowsLocked(measure_name, m);
  }
  copy_in_span.End();
  const double copy_ms = copy_out_span.elapsed_ms() + copy_in_span.elapsed_ms();
  stage_hist("copy").Observe(copy_ms);
  report.stages.push_back({"copy", copy_ms});

  obs::TraceSpan journal_span("build.journal", &trace_,
                              &stage_hist("journal"));
  DPE_RETURN_NOT_OK(JournalRows(measure_name, r, m));
  journal_span.End();
  report.stages.push_back({"journal", journal_span.elapsed_ms()});
  return m;
}

void Engine::CacheRowsLocked(const std::string& measure_name,
                             const distance::DistanceMatrix& m) {
  triangles_[measure_name].ExtendFrom(m);
  std::erase(build_order_, measure_name);
  build_order_.push_back(measure_name);
  EvictToBudgetLocked();
}

void Engine::EvictToBudgetLocked() {
  if (options_.cache_max_bytes == 0) return;
  size_t bytes = 0;
  for (const auto& [name, triangle] : triangles_) bytes += triangle.bytes();
  while (bytes > options_.cache_max_bytes && !build_order_.empty()) {
    auto it = triangles_.find(build_order_.front());
    bytes -= it->second.bytes();
    cache_stats_.evictions += it->second.cells();
    triangles_.erase(it);
    build_order_.erase(build_order_.begin());
  }
}

Status Engine::JournalRows(const std::string& measure_name, size_t first,
                           const distance::DistanceMatrix& m) {
  const size_t n = m.size();
  MutexLock lock(store_mu_);  // also guards the store_ read
  if (store_ == nullptr) return Status::OK();
  // Rows below the watermark are already persisted (by the snapshot or an
  // earlier record): journaling them again would grow the journal without
  // bound whenever a byte budget evicts a measure and a build recomputes
  // it. Row 0 journals as an empty record, so a measure first built after
  // the checkpoint replays from row 0 without a gap.
  size_t& watermark = journal_watermarks_[measure_name];
  const size_t begin = std::max(first, watermark);
  if (begin >= n) return Status::OK();
  std::vector<store::JournalRecord> records(n - begin);
  for (size_t row = begin; row < n; ++row) {
    store::JournalRecord& record = records[row - begin];
    record.kind = store::JournalRecord::Kind::kRowComputed;
    record.measure = measure_name;
    record.row = static_cast<uint32_t>(row);
    record.values.assign(m.RowUnchecked(row), m.RowUnchecked(row) + row);
  }
  DPE_RETURN_NOT_OK(store_->AppendRecords(records));
  watermark = n;
  MaybeScheduleCompactionLocked();
  return Status::OK();
}

void Engine::MaybeScheduleCompactionLocked() {
  if (!options_.enable_compaction || store_ == nullptr) return;
  if (compaction_stop_.load(std::memory_order_acquire)) return;
  if (store_->JournalBytes() < options_.compaction_trigger_bytes) return;
  if (compaction_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  pool_.Submit([this] { CompactionCycle(); });
}

void Engine::CompactionCycle() {
  Result<bool> published = CompactNow();
  if (!published.ok()) {
    metrics_->counter("store.compaction.failures").Increment();
  }
  compaction_inflight_.store(false, std::memory_order_release);
  // Appends that landed while the fold ran may already have outgrown the
  // trigger again; chain the next cycle instead of waiting for the next
  // append to notice.
  MutexLock lock(store_mu_);
  MaybeScheduleCompactionLocked();
}

Result<bool> Engine::CompactNow() {
  obs::TraceSpan span(
      "engine.compact", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "compact"}}));
  std::shared_ptr<store::MatrixStore> store;
  store::CompactionPlan plan;
  {
    MutexLock lock(store_mu_);
    if (store_ == nullptr) {
      return Status::NotFound("compact: no checkpoint attached");
    }
    store = store_;
    DPE_ASSIGN_OR_RETURN(plan, store->BeginCompaction());
  }
  if (!plan.has_work) return false;
  if (compaction_stop_.load(std::memory_order_acquire)) return false;

  // The fold runs OFF the store mutex: it touches only the frozen journal
  // and the from-generation snapshot, both immutable now that appends go to
  // the rotated journal. Concurrent builds keep appending the whole time.
  DPE_ASSIGN_OR_RETURN(store::Snapshot folded, store->FoldFrozen(plan));
  if (compaction_stop_.load(std::memory_order_acquire)) return false;

  MutexLock lock(store_mu_);
  if (store_ != store) return false;  // store swapped out while folding
  DPE_ASSIGN_OR_RETURN(bool published, store->PublishCompaction(plan, folded));
  if (published) {
    metrics_->counter("store.compaction.runs").Increment();
    metrics_->gauge("store.compaction.generation")
        .Set(static_cast<double>(store->generation()));
    metrics_->gauge("store.journal_bytes")
        .Set(static_cast<double>(store->JournalBytes()));
  }
  return published;
}

Status Engine::SaveCheckpoint(const std::string& dir,
                              CheckpointSaveReport* report) {
  CheckpointSaveReport local;
  obs::TraceSpan api_span(
      "engine.save_checkpoint", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "save_checkpoint"}}));

  DPE_ASSIGN_OR_RETURN(store::MatrixStore opened, store::MatrixStore::Open(dir));
  opened.set_fsync_policy(options_.fsync_policy);
  // store_mu_ is held across export + write + truncate + attach, which
  // orders the save against the background compaction task: a cycle that
  // publishes first is superseded by this snapshot, and one that publishes
  // later finds the store swapped and aborts.
  MutexLock lock(store_mu_);
  obs::TraceSpan export_span("checkpoint.export", &trace_);
  store::Snapshot snapshot;
  snapshot.queries.reserve(queries_.size());
  for (const sql::SelectQuery& q : queries_) {
    snapshot.queries.push_back(sql::ToSql(q));
  }
  {
    MutexLock cache_lock(cache_mu_);
    snapshot.triangles = triangles_;
  }
  export_span.End();
  local.stages.push_back({"export", export_span.elapsed_ms()});
  local.queries = snapshot.queries.size();
  for (const auto& [name, triangle] : snapshot.triangles) {
    local.cache_entries += triangle.cells();
  }

  obs::TraceSpan write_span("checkpoint.write", &trace_);
  DPE_RETURN_NOT_OK(opened.WriteSnapshot(snapshot));
  write_span.End();
  local.stages.push_back({"write", write_span.elapsed_ms()});

  obs::TraceSpan truncate_span("checkpoint.truncate", &trace_);
  DPE_RETURN_NOT_OK(opened.TruncateJournal());
  truncate_span.End();
  local.stages.push_back({"truncate", truncate_span.elapsed_ms()});

  store_ = std::make_shared<store::MatrixStore>(std::move(opened));
  journal_watermarks_.clear();
  for (const auto& [name, triangle] : snapshot.triangles) {
    journal_watermarks_[name] = triangle.rows();
  }

  api_span.End();
  local.wall_ms = api_span.elapsed_ms();
  metrics_->counter("checkpoint.saves").Increment();
  if (report != nullptr) *report = std::move(local);
  return Status::OK();
}

Status Engine::LoadCheckpoint(const std::string& dir,
                              CheckpointLoadReport* report) {
  if (report != nullptr) *report = CheckpointLoadReport{};
  obs::TraceSpan api_span(
      "engine.load_checkpoint", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "load_checkpoint"}}));

  obs::TraceSpan read_span("checkpoint.read", &trace_);
  DPE_ASSIGN_OR_RETURN(store::MatrixStore opened,
                       store::MatrixStore::OpenExisting(dir));
  opened.set_fsync_policy(options_.fsync_policy);
  store::Snapshot snapshot;
  std::vector<store::JournalRecord> journal;
  // Recovery read: a torn final record (we may be restarting from the very
  // crash the checkpoint exists for) is dropped and trimmed, not fatal —
  // unless the operator opted into strict loads, where a tear is theirs to
  // inspect before it is destroyed.
  auto read_state = [&]() -> Status {
    snapshot = store::Snapshot{};
    journal.clear();
    DPE_ASSIGN_OR_RETURN(snapshot, opened.ReadSnapshot());
    if (options_.tolerate_torn_journal) {
      DPE_ASSIGN_OR_RETURN(store::JournalRecovery recovery,
                           opened.RecoverJournal());
      journal = std::move(recovery.records);
      if (report != nullptr) {
        report->journal_tail_truncated = recovery.tail_truncated;
        report->dropped_journal_records = recovery.dropped_records;
        report->dropped_journal_bytes = recovery.dropped_bytes;
      }
      return Status::OK();
    }
    DPE_ASSIGN_OR_RETURN(journal, opened.ReadJournal());
    return Status::OK();
  };
  store::ScrubReport scrub;
  bool scrubbed = false;
  Status read_status = read_state();
  if (!read_status.ok() && options_.scrub_on_load &&
      read_status.code() == StatusCode::kParseError) {
    // Self-healing path: quarantine the damaged extents (never guessing at
    // their contents), then retry the strict load once over the repaired
    // files. The quarantined cells are recomputed below, after the restore.
    obs::TraceSpan scrub_span("checkpoint.scrub", &trace_);
    DPE_ASSIGN_OR_RETURN(scrub, opened.Scrub());
    scrubbed = true;
    scrub_span.End();
    if (report != nullptr) {
      report->stages.push_back({"scrub", scrub_span.elapsed_ms()});
    }
    metrics_->counter("checkpoint.scrub_loads").Increment();
    read_status = read_state();
  }
  DPE_RETURN_NOT_OK(read_status);
  read_span.End();
  if (report != nullptr) {
    report->stages.push_back({"read", read_span.elapsed_ms()});
  }

  // Replay and parse everything up front so a corrupt checkpoint leaves the
  // engine untouched.
  obs::TraceSpan parse_span("checkpoint.parse", &trace_);
  DPE_RETURN_NOT_OK(store::ApplyJournal(journal, &snapshot));
  std::vector<sql::SelectQuery> log;
  log.reserve(snapshot.queries.size());
  for (const std::string& text : snapshot.queries) {
    DPE_ASSIGN_OR_RETURN(sql::SelectQuery q, sql::Parse(text));
    log.push_back(std::move(q));
  }
  parse_span.End();
  if (report != nullptr) {
    report->stages.push_back({"parse", parse_span.elapsed_ms()});
  }

  obs::TraceSpan restore_span("checkpoint.restore", &trace_);
  queries_ = std::move(log);
  log_size_.store(queries_.size(), std::memory_order_release);
  std::vector<std::string> measures;
  {
    MutexLock lock(store_mu_);
    store_ = std::make_shared<store::MatrixStore>(std::move(opened));
    journal_watermarks_.clear();
    for (const auto& [name, triangle] : snapshot.triangles) {
      journal_watermarks_[name] = triangle.rows();
      measures.push_back(name);
    }
  }
  {
    // Recency is not persisted: the budget evicts restored measures in name
    // order.
    MutexLock lock(cache_mu_);
    triangles_ = std::move(snapshot.triangles);
    build_order_ = measures;
    EvictToBudgetLocked();
  }
  restore_span.End();

  // Graceful degradation: what the scrub had to quarantine is rebuilt here
  // through the normal build path — every row from a measure's first lost
  // row on is a miss of a fresh build over the restored log. Best effort: a
  // measure this engine cannot build (custom, unregistered) leaves its
  // cells to the caller's next explicit BuildMatrix.
  uint64_t cells_recomputed = 0;
  if (scrubbed && (scrub.snapshot_rewritten || scrub.cells_quarantined > 0 ||
                   scrub.journal_rewritten)) {
    obs::TraceSpan recompute_span("checkpoint.recompute", &trace_);
    for (const std::string& name : measures) {
      BuildReport build;
      if (BuildMatrix(name, &build).ok()) {
        cells_recomputed += build.cells_computed;
      } else {
        metrics_->counter("checkpoint.scrub_recompute_failures").Increment();
      }
    }
    recompute_span.End();
    if (report != nullptr) {
      report->stages.push_back({"recompute", recompute_span.elapsed_ms()});
    }
    metrics_->counter("checkpoint.cells_recomputed")
        .Increment(cells_recomputed);
  }

  metrics_->counter("checkpoint.loads").Increment();
  metrics_->counter("checkpoint.journal_records_replayed")
      .Increment(journal.size());
  api_span.End();
  if (report != nullptr) {
    report->stages.push_back({"restore", restore_span.elapsed_ms()});
    report->queries_restored = queries_.size();
    report->journal_records_replayed = journal.size();
    report->scrubbed = scrubbed;
    report->cells_quarantined = scrub.cells_quarantined;
    report->journal_records_quarantined = scrub.journal_records_quarantined;
    report->cells_recomputed = cells_recomputed;
    report->wall_ms = api_span.elapsed_ms();
  }
  return Status::OK();
}

// The Run* methods run on the caller's thread. k-medoids and DB(p, D)
// outliers get the engine's pool: their parallel maps + serial index-order
// reductions are bit-identical to their serial references (tested). On
// 2 threads bench_mining_scaling reads anywhere from no gain to ~1.8x at
// the stream workloads' n = 544-712, run to run; end to end, running both
// serially made perfbench's stream_append arrivals slower. DBSCAN,
// complete link and the kNN loop over the outliers run serially. ROADMAP
// ("Which miners keep the pool") has the measurements.

Result<mining::KMedoidsResult> Engine::RunKMedoids(
    const std::string& measure, const mining::KMedoidsOptions& options) {
  obs::TraceSpan span(
      "engine.kmedoids", &trace_,
      &metrics_->histogram("engine.api_ms",
                           {{"api", "kmedoids"}, {"measure", measure}}));
  DPE_ASSIGN_OR_RETURN(distance::DistanceMatrix m, BuildMatrix(measure));
  mining::KMedoidsOptions pooled = options;
  pooled.pool = &pool_;
  pooled.metrics = metrics_;
  return mining::KMedoids(m, pooled);
}

Result<mining::DbscanResult> Engine::RunDbscan(
    const std::string& measure, const mining::DbscanOptions& options) {
  obs::TraceSpan span(
      "engine.dbscan", &trace_,
      &metrics_->histogram("engine.api_ms",
                           {{"api", "dbscan"}, {"measure", measure}}));
  DPE_ASSIGN_OR_RETURN(distance::DistanceMatrix m, BuildMatrix(measure));
  mining::DbscanOptions counted = options;
  counted.metrics = metrics_;
  return mining::Dbscan(m, counted);
}

Result<mining::Dendrogram> Engine::RunHierarchical(const std::string& measure) {
  obs::TraceSpan span(
      "engine.hierarchical", &trace_,
      &metrics_->histogram("engine.api_ms",
                           {{"api", "hierarchical"}, {"measure", measure}}));
  DPE_ASSIGN_OR_RETURN(distance::DistanceMatrix m, BuildMatrix(measure));
  return mining::CompleteLink(m, &pool_, context_.kernel_backend, metrics_);
}

Result<OutlierKnnReport> Engine::RunOutlierKnn(
    const std::string& measure, const mining::OutlierOptions& options,
    size_t k) {
  obs::TraceSpan span(
      "engine.outlier_knn", &trace_,
      &metrics_->histogram("engine.api_ms",
                           {{"api", "outlier_knn"}, {"measure", measure}}));
  DPE_ASSIGN_OR_RETURN(distance::DistanceMatrix m, BuildMatrix(measure));
  OutlierKnnReport report;
  mining::OutlierOptions pooled = options;
  pooled.pool = &pool_;
  pooled.metrics = metrics_;
  DPE_ASSIGN_OR_RETURN(report.outliers,
                       mining::DistanceBasedOutliers(m, pooled));
  metrics_->counter("mining.knn.queries")
      .Increment(report.outliers.outliers.size());
  // One kNN list per outlier, in index order; the first failure wins.
  report.neighbors.reserve(report.outliers.outliers.size());
  for (size_t outlier : report.outliers.outliers) {
    DPE_ASSIGN_OR_RETURN(std::vector<size_t> neighbors,
                         mining::NearestNeighbors(m, outlier, k));
    report.neighbors.push_back(std::move(neighbors));
  }
  return report;
}

// -- Sharded builds ----------------------------------------------------------

Result<ShardPlan> Engine::PlanShards(size_t shard_count) const {
  return engine::PlanShards(queries_.size(), shard_count);
}

namespace {

/// Registers a drive's lease board with the engine's /stats for its
/// duration — RAII so every exit path (including errors) deregisters.
class ScopedActiveDrive {
 public:
  ScopedActiveDrive(Mutex& mu, std::shared_ptr<LeaseBoard>* slot,
                    std::string* matrix_slot,
                    std::shared_ptr<LeaseBoard> board, std::string matrix)
      : mu_(mu), slot_(slot), matrix_slot_(matrix_slot) {
    MutexLock lock(mu_);
    *slot_ = std::move(board);
    *matrix_slot_ = std::move(matrix);
  }
  ~ScopedActiveDrive() {
    MutexLock lock(mu_);
    slot_->reset();
    matrix_slot_->clear();
  }

 private:
  Mutex& mu_;
  std::shared_ptr<LeaseBoard>* slot_;
  std::string* matrix_slot_;
};

}  // namespace

template <typename Report>
Result<Report> Engine::RunShardRole(ShardRole<Report> role,
                                    const std::string& measure_name,
                                    size_t shard_count, const std::string& dir,
                                    const MultiHostOptions& options) {
  DPE_ASSIGN_OR_RETURN(const distance::QueryDistanceMeasure* measure,
                       MeasureFor(measure_name));
  DPE_ASSIGN_OR_RETURN(const ShardPlan plan, PlanShards(shard_count));
  DPE_ASSIGN_OR_RETURN(store::MatrixStore store, store::MatrixStore::Open(dir));
  store.set_fsync_policy(options_.fsync_policy);
  LeaseBoard::Options board_options;
  board_options.dir = dir;
  board_options.matrix = measure_name;
  board_options.shard_count = static_cast<uint32_t>(shard_count);
  board_options.ttl_ms = options.ttl_ms;
  DPE_ASSIGN_OR_RETURN(std::shared_ptr<LeaseBoard> board,
                       LeaseBoard::Open(board_options));
  ScopedActiveDrive active(drive_mu_, &active_board_, &active_drive_matrix_,
                           board, measure_name);
  return role(measure_name, queries_, *measure, context_, plan, store, *board,
              options, {.pool = &pool_, .metrics = metrics_, .trace = &trace_});
}

Result<WorkerReport> Engine::RunShardWorker(const std::string& measure_name,
                                            size_t shard_count,
                                            const std::string& dir,
                                            const MultiHostOptions& options) {
  obs::TraceSpan span(
      "engine.run_shard_worker", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "run_shard_worker"}}));
  return RunShardRole(&RunWorkerLoop, measure_name, shard_count, dir, options);
}

Result<DriveReport> Engine::DriveShards(const std::string& measure_name,
                                        size_t shard_count,
                                        const std::string& dir,
                                        const MultiHostOptions& options) {
  obs::TraceSpan span(
      "engine.drive_shards", &trace_,
      &metrics_->histogram("engine.api_ms", {{"api", "drive_shards"}}));
  DPE_ASSIGN_OR_RETURN(DriveReport report,
                       RunShardRole(&engine::DriveShards, measure_name,
                                    shard_count, dir, options));

  if (options_.enable_cache) {
    // Warm the triangle so mining over the merged matrix (or an incremental
    // rebuild after AddQuery) reuses the shards' work, and journal the rows
    // as a build would, so a restart from the checkpoint keeps them.
    {
      MutexLock lock(cache_mu_);
      CacheRowsLocked(measure_name, report.matrix);
    }
    DPE_RETURN_NOT_OK(JournalRows(measure_name, 0, report.matrix));
  }
  return report;
}

// -- Cache introspection -----------------------------------------------------

CacheStats Engine::cache_stats() const {
  MutexLock lock(cache_mu_);
  return cache_stats_;
}

size_t Engine::cache_size() const {
  MutexLock lock(cache_mu_);
  size_t cells = 0;
  for (const auto& [name, triangle] : triangles_) cells += triangle.cells();
  return cells;
}

size_t Engine::cache_bytes_used() const {
  return cache_size() * sizeof(double);
}

void Engine::ClearCache() {
  MutexLock lock(cache_mu_);
  triangles_.clear();
  build_order_.clear();
}

// -- Observability -----------------------------------------------------------

BuildReport Engine::last_build_report() const {
  MutexLock lock(report_mu_);
  return last_build_;
}

obs::StatsReport Engine::Stats() const {
  // Gauges are sampled state, not event streams — refresh them from their
  // sources right before the snapshot so the export is current.
  const common::ThreadPool::Stats pool_stats = pool_.GetStats();
  metrics_->gauge("threadpool.threads")
      .Set(static_cast<double>(pool_.thread_count()));
  metrics_->gauge("threadpool.tasks_executed")
      .Set(static_cast<double>(pool_stats.tasks_executed));
  metrics_->gauge("threadpool.peak_queue_depth")
      .Set(static_cast<double>(pool_stats.peak_queue_depth));
  metrics_->gauge("threadpool.busy_ms")
      .Set(static_cast<double>(pool_stats.busy_ns) / 1e6);
  metrics_->gauge("threadpool.queue_depth")
      .Set(static_cast<double>(pool_.queue_depth()));
  const CacheStats cache = cache_stats();
  metrics_->gauge("cache.hits").Set(static_cast<double>(cache.hits));
  metrics_->gauge("cache.misses").Set(static_cast<double>(cache.misses));
  metrics_->gauge("cache.evictions").Set(static_cast<double>(cache.evictions));
  metrics_->gauge("cache.entries").Set(static_cast<double>(cache_size()));
  metrics_->gauge("cache.bytes_used")
      .Set(static_cast<double>(cache_bytes_used()));
  {
    MutexLock lock(store_mu_);
    if (store_ != nullptr) {
      metrics_->gauge("store.compaction.generation")
          .Set(static_cast<double>(store_->generation()));
      metrics_->gauge("store.journal_bytes")
          .Set(static_cast<double>(store_->JournalBytes()));
    }
  }

  obs::StatsReport report;
  report.metrics = metrics_->Snapshot();
  BuildReport last;
  {
    MutexLock lock(report_mu_);
    last = last_build_;
  }
  report.stages = last.stages;

  const uint64_t lookups = cache.hits + cache.misses;
  char hit_rate[32];
  std::snprintf(hit_rate, sizeof(hit_rate), "%.4f",
                lookups == 0 ? 0.0
                             : static_cast<double>(cache.hits) /
                                   static_cast<double>(lookups));
  report.info = {
      {"kernel_backend",
       common::simd::BackendName(
           common::simd::KernelsFor(context_.kernel_backend).backend)},
      {"threads", std::to_string(pool_.thread_count())},
      {"log_size", std::to_string(log_size())},
      {"cache_hit_rate", hit_rate},
      {"last_build_measure", last.measure},
  };

  // In-flight lease table: while a DriveShards/RunShardWorker is active,
  // /stats shows who holds which range, how stale each heartbeat is, and
  // how often it renewed — so a stuck multi-host build is diagnosable with
  // one curl instead of ssh'ing into every worker host.
  std::shared_ptr<LeaseBoard> board;
  std::string drive_matrix;
  {
    MutexLock lock(drive_mu_);
    board = active_board_;
    drive_matrix = active_drive_matrix_;
  }
  if (board != nullptr) {
    std::string leases = "[";
    if (Result<std::vector<LeaseInfo>> table = board->Snapshot();
        table.ok()) {
      bool first = true;
      for (const LeaseInfo& lease : *table) {
        if (!first) leases.push_back(',');
        first = false;
        leases += "{\"shard\":" + std::to_string(lease.shard_index);
        leases += ",\"held\":";
        leases += lease.held ? "true" : "false";
        leases += ",\"fresh\":";
        leases += lease.fresh ? "true" : "false";
        leases += ",\"holder\":" + obs::JsonQuoted(lease.holder_host);
        leases += ",\"pid\":" + std::to_string(lease.holder_pid);
        leases += ",\"epoch\":" + std::to_string(lease.epoch);
        leases += ",\"renewals\":" + std::to_string(lease.renewals);
        leases += ",\"cells\":" + std::to_string(lease.cells);
        leases += ",\"age_ms\":" + std::to_string(lease.age_ms);
        leases += "}";
      }
    }
    leases += "]";
    report.extra_json.emplace_back("drive_matrix",
                                   obs::JsonQuoted(drive_matrix));
    report.extra_json.emplace_back("leases", std::move(leases));
  }
  return report;
}

std::string Engine::MetricsText() const {
  // One scrape = one rate tick: the Prometheus scrape interval IS the rate
  // window's sampling cadence, the standard arrangement.
  std::string text = Stats().ToPrometheusText();
  text += obs::PrometheusText(rates_.Tick(*metrics_));
  return text;
}

std::string Engine::HealthzJson() const {
  const BuildReport last = last_build_report();
  std::string json = "{\"status\":\"ok\"";
  json += ",\"log_size\":" + std::to_string(log_size());
  json += ",\"checkpoint_attached\":";
  json += checkpoint_attached() ? "true" : "false";
  json += ",\"last_build\":{\"measure\":" + obs::JsonQuoted(last.measure);
  json += ",\"n\":" + std::to_string(last.n);
  json += ",\"cells_total\":" + std::to_string(last.cells_total);
  json += ",\"cells_computed\":" + std::to_string(last.cells_computed);
  char wall[32];
  std::snprintf(wall, sizeof(wall), "%.3f", last.wall_ms);
  json += ",\"wall_ms\":";
  json += wall;
  json += "}}";
  return json;
}

}  // namespace dpe::engine
