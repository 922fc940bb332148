#include "engine/driver.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/backoff.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace dpe::engine {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// A shard whose export reads corrupt is discarded and recomputed at most
/// this many times before the drive fails (pathological disk).
constexpr int kMaxDiscardsPerShard = 3;

/// The wait ladder of both roles when a round finds nothing to do. Its cap
/// bounds how stale the driver's view of the board can get: a dead worker
/// stalls its range at most the TTL plus this cap.
constexpr common::BackoffPolicy kPollBackoff{100, 2000, 25};

/// The lease renew cadence for a TTL: a tenth of it, so a holder always
/// beats several times per TTL.
int HeartbeatMs(int ttl_ms) { return std::max(1, ttl_ms / 10); }

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

obs::MetricsRegistry& RegistryOrDefault(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? *metrics : obs::MetricsRegistry::Default();
}

common::FaultInjector& FaultsOrGlobal(common::FaultInjector* faults) {
  return faults != nullptr ? *faults : common::FaultInjector::Global();
}

/// Age of `path` by mtime, in ms; negative ages (clock skew between hosts
/// sharing the directory) clamp to 0 — skew must never make a live lease
/// look expired, only (harmlessly) delay an expiry.
Result<int64_t> FileAgeMs(const std::string& path) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) {
    return Status::NotFound("lease: cannot stat " + path + ": " +
                            ec.message());
  }
  const auto age = std::chrono::file_clock::now() - mtime;
  const int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
  return ms < 0 ? 0 : ms;
}

/// Parses "dpe-lease host=<h> pid=<p> epoch=<e> renewals=<r> cells=<c>".
/// Tolerant by design: the protocol's correctness rides on O_EXCL and mtime
/// only, so a torn or garbled line yields defaults ("" / 0), never an
/// error — the lease is still real, its holder merely anonymous. Unknown
/// keys are skipped, so lines written by older builds (no cells=) and newer
/// ones interoperate.
void ParseLeaseLine(const std::string& line, LeaseInfo* info) {
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string_view token(line.data() + pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      uint64_t number = 0;
      bool numeric = !value.empty();
      for (char c : value) {
        if (c < '0' || c > '9') { numeric = false; break; }
        number = number * 10 + static_cast<uint64_t>(c - '0');
      }
      if (key == "host") {
        info->holder_host = std::string(value);
      } else if (key == "pid" && numeric) {
        info->holder_pid = static_cast<int64_t>(number);
      } else if (key == "epoch" && numeric) {
        info->epoch = number;
      } else if (key == "renewals" && numeric) {
        info->renewals = number;
      } else if (key == "cells" && numeric) {
        info->cells = number;
      }
    }
    pos = end + 1;
  }
}

std::string HostnameOrFallback() {
  char buffer[256] = {};
  if (::gethostname(buffer, sizeof(buffer) - 1) == 0 && buffer[0] != '\0') {
    return buffer;
  }
  return "unknown-host";
}

}  // namespace

// -- LeaseBoard --------------------------------------------------------------

LeaseBoard::LeaseBoard(Options options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<LeaseBoard>> LeaseBoard::Open(const Options& options) {
  if (options.shard_count == 0) {
    return Status::InvalidArgument("lease board: shard count must be >= 1");
  }
  if (options.ttl_ms <= 0) {
    return Status::InvalidArgument("lease board: ttl_ms must be positive");
  }
  std::error_code ec;
  if (!fs::is_directory(options.dir, ec)) {
    return Status::InvalidArgument("lease board: " + options.dir +
                                   " is not a directory");
  }
  Options normalized = options;
  if (normalized.host.empty()) normalized.host = HostnameOrFallback();
  return std::unique_ptr<LeaseBoard>(new LeaseBoard(std::move(normalized)));
}

std::string LeaseBoard::LeasePath(uint32_t shard) const {
  return (fs::path(options_.dir) /
          ("shard-" + options_.matrix + "-" + std::to_string(shard) + "of" +
           std::to_string(options_.shard_count) + ".lease"))
      .string();
}

Status LeaseBoard::WriteLine(int fd, uint32_t shard, const Held& held) const {
  const std::string line =
      "dpe-lease host=" + options_.host + " pid=" + std::to_string(::getpid()) +
      " epoch=" + std::to_string(held.epoch) +
      " renewals=" + std::to_string(held.renewals) +
      " cells=" + std::to_string(held.cells) + "\n";
  const ssize_t written = ::write(fd, line.data(), line.size());
  if (written != static_cast<ssize_t>(line.size())) {
    return Status::Internal("lease: short write to " + LeasePath(shard));
  }
  return Status::OK();
}

Result<bool> LeaseBoard::TryAcquire(uint32_t shard) {
  if (shard >= options_.shard_count) {
    return Status::InvalidArgument("lease: shard index " +
                                   std::to_string(shard) + " out of range");
  }
  const std::string path = LeasePath(shard);

  // Fast path: O_EXCL create — the filesystem arbitrates the race.
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0 && errno != EEXIST) {
    return Status::Internal("lease: cannot create " + path + ": " +
                            std::strerror(errno));
  }
  uint64_t epoch = 1;
  if (fd < 0) {
    // Exists. Fresh = someone live holds it; expired = steal it.
    Result<int64_t> age = FileAgeMs(path);
    if (!age.ok()) {
      // Vanished between open and stat: the holder released (or a reclaim
      // won). Let the next round retry rather than looping here.
      return false;
    }
    if (*age <= options_.ttl_ms) return false;

    // Expired: best-effort read of the previous epoch so the steal bumps
    // it (diagnosability; correctness does not depend on it).
    {
      LeaseInfo prev;
      std::ifstream in(path);
      std::string line;
      if (in && std::getline(in, line)) ParseLeaseLine(line, &prev);
      epoch = prev.epoch + 1;
    }
    std::error_code ec;
    fs::remove(path, ec);  // ENOENT fine: a rival reclaimer got there first
    fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
      if (errno == EEXIST) return false;  // lost the steal race — move on
      return Status::Internal("lease: cannot re-create " + path + ": " +
                              std::strerror(errno));
    }
  }

  Held held;
  held.epoch = epoch;
  const Status wrote = WriteLine(fd, shard, held);
  ::close(fd);
  if (!wrote.ok()) {
    // A lease we cannot write is still a lease we hold (the create won);
    // content is informational, so keep it rather than releasing work.
    obs::Log(obs::LogLevel::kWarn, "driver",
             "lease line write failed; holding anyway",
             {{"shard", std::to_string(shard)}});
  }
  {
    MutexLock lock(mu_);
    held_[shard] = held;
  }
  return true;
}

Status LeaseBoard::Renew(uint32_t shard) {
  Held held;
  {
    MutexLock lock(mu_);
    auto it = held_.find(shard);
    if (it == held_.end()) {
      return Status::InvalidArgument("lease: renewing shard " +
                                     std::to_string(shard) +
                                     " this process does not hold");
    }
    ++it->second.renewals;
    held = it->second;
  }
  // O_CREAT (not O_EXCL): if a reclaimer stole the lease while we were
  // stalled, this resurrects it — both holders then compute, and the
  // idempotent export makes that merely wasteful. O_TRUNC + rewrite bumps
  // the mtime, which is the actual heartbeat.
  const std::string path = LeasePath(shard);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::Internal("lease: cannot renew " + path + ": " +
                            std::strerror(errno));
  }
  const Status wrote = WriteLine(fd, shard, held);
  ::close(fd);
  return wrote;
}

Status LeaseBoard::Release(uint32_t shard) {
  {
    MutexLock lock(mu_);
    held_.erase(shard);
  }
  std::error_code ec;
  fs::remove(LeasePath(shard), ec);  // absent = already released/stolen: OK
  if (ec) {
    return Status::Internal("lease: cannot release " + LeasePath(shard) +
                            ": " + ec.message());
  }
  return Status::OK();
}

void LeaseBoard::ReportProgress(uint32_t shard, uint64_t cells) {
  // Stored on the held record only; the next Renew's rewrite publishes it.
  // Progress on a shard this process no longer holds is silently dropped —
  // the lease (and its line) belong to the thief now.
  MutexLock lock(mu_);
  auto it = held_.find(shard);
  if (it != held_.end()) it->second.cells = cells;
}

Result<bool> LeaseBoard::ReclaimExpired(uint32_t shard) {
  const std::string path = LeasePath(shard);
  Result<int64_t> age = FileAgeMs(path);
  if (!age.ok()) return false;             // no lease — nothing to reclaim
  if (*age <= options_.ttl_ms) return false;  // live holder
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return Status::Internal("lease: cannot reclaim " + path + ": " +
                            ec.message());
  }
  return true;
}

Result<std::vector<LeaseInfo>> LeaseBoard::Snapshot() const {
  std::vector<LeaseInfo> table;
  table.reserve(options_.shard_count);
  for (uint32_t s = 0; s < options_.shard_count; ++s) {
    LeaseInfo info;
    info.shard_index = s;
    const std::string path = LeasePath(s);
    Result<int64_t> age = FileAgeMs(path);
    if (age.ok()) {
      info.held = true;
      info.age_ms = *age;
      info.fresh = *age <= options_.ttl_ms;
      std::ifstream in(path);
      std::string line;
      if (in && std::getline(in, line)) ParseLeaseLine(line, &info);
    }
    table.push_back(std::move(info));
  }
  return table;
}

// -- LeaseHeartbeat ----------------------------------------------------------

LeaseHeartbeat::LeaseHeartbeat(LeaseBoard* board, uint32_t shard,
                               int interval_ms,
                               const std::atomic<uint64_t>* progress)
    : board_(board),
      shard_(shard),
      interval_ms_(std::max(1, interval_ms)),
      progress_(progress) {
  thread_ = std::thread([this] { Loop(); });
}

void LeaseHeartbeat::Loop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      // Explicit deadline loop: the analysis can't see through a predicate
      // lambda reading the guarded stopping_ flag.
      const auto deadline =
          Clock::now() + std::chrono::milliseconds(interval_ms_);
      while (!stopping_) {
        const auto now = Clock::now();
        if (now >= deadline) break;
        cv_.WaitFor(mu_, deadline - now);
      }
      if (stopping_) return;
    }
    // Publish progress first so the renew's line rewrite carries it.
    if (progress_ != nullptr) {
      board_->ReportProgress(shard_,
                             progress_->load(std::memory_order_relaxed));
    }
    if (board_->Renew(shard_).ok()) {
      renewals_.fetch_add(1, std::memory_order_relaxed);
    }
    // A failed renew is not fatal: the lease just ages toward expiry,
    // which is the protocol's safe direction (someone else re-does the
    // work; the export is idempotent).
  }
}

LeaseHeartbeat::~LeaseHeartbeat() { Stop(); }

void LeaseHeartbeat::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) {
      if (!thread_.joinable()) return;
    }
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

// -- The leased-shard step ---------------------------------------------------

namespace {

/// The step both roles take once they won `shard`'s lease: heartbeat the
/// lease while ShardWorker computes and exports the range, release it, and
/// count the shard under `counter`. `faults` (the worker loop's; null for
/// the coordinator) fires worker.export once the heartbeat runs. The lease
/// is released on failure too, so peers are not blocked a full TTL, and a
/// failed release is ignorable either way: the lease ages out and a peer
/// reclaims it (the protocol's safe direction).
Status RunLeasedShard(const std::string& matrix_name,
                      const std::vector<sql::SelectQuery>& queries,
                      const distance::QueryDistanceMeasure& measure,
                      const distance::MeasureContext& context,
                      const ShardPlan& plan, uint32_t shard,
                      store::MatrixStore& store, LeaseBoard& board,
                      const ShardRuntime& runtime,
                      common::FaultInjector* faults, const char* counter) {
  Status ran;
  {
    // The builder bumps this per finished tile; each heartbeat forwards it
    // into the lease line, so /stats shows how far the shard is.
    std::atomic<uint64_t> cells_done{0};
    LeaseHeartbeat heartbeat(&board, shard, HeartbeatMs(board.ttl_ms()),
                             &cells_done);
    // Die here = the die-before-export mode: lease held, no shard file —
    // peers steal the range after expiry.
    if (faults != nullptr) faults->Fire("worker.export");
    ShardWorker worker(runtime.pool, runtime.metrics, runtime.trace);
    worker.set_progress_cells(&cells_done);
    ran = worker.Run(matrix_name, queries, measure, context, plan, shard, store)
              .status();
  }
  (void)board.Release(shard);
  DPE_RETURN_NOT_OK(ran);
  RegistryOrDefault(runtime.metrics)
      .counter(counter, {{"matrix", matrix_name}})
      .Increment();
  return Status::OK();
}

}  // namespace

// -- RunWorkerLoop -----------------------------------------------------------

Result<WorkerReport> RunWorkerLoop(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    store::MatrixStore& store, LeaseBoard& board,
    const MultiHostOptions& options, const ShardRuntime& runtime) {
  common::FaultInjector& faults = FaultsOrGlobal(runtime.faults);
  const uint32_t k = static_cast<uint32_t>(plan.shard_count());
  if (k == 0) {
    return Status::InvalidArgument("worker loop: plan has no shards");
  }

  WorkerReport report;
  common::Backoff backoff(kPollBackoff);
  Clock::time_point last_progress = Clock::now();

  for (;;) {
    bool progress = false;
    uint32_t existing = 0;
    for (uint32_t s = 0; s < k; ++s) {
      if (store.HasShard(matrix_name, s, k)) {
        ++existing;
        continue;
      }
      faults.Fire("worker.preacquire");
      DPE_ASSIGN_OR_RETURN(const bool acquired, board.TryAcquire(s));
      if (!acquired) continue;  // a live peer owns it — on to the next
      // Wedge here = the wedge-without-heartbeat mode: the lease exists
      // but never renews, so it expires after the TTL and gets stolen.
      faults.Fire("worker.acquired");
      // A compute error is a real bug, not churn: surface it.
      DPE_RETURN_NOT_OK(RunLeasedShard(matrix_name, queries, measure, context,
                                       plan, s, store, board, runtime,
                                       &faults, "driver.worker_shards"));
      ++report.computed;
      progress = true;
      ++existing;
    }
    if (existing == k) return report;

    if (progress) {
      backoff.OnSuccess();
      last_progress = Clock::now();
      continue;  // immediately sweep again — more may be acquirable
    }
    if (options.idle_timeout_ms > 0 &&
        ElapsedMs(last_progress) >= options.idle_timeout_ms) {
      // Peers hold everything that is left and are live (or the driver is
      // finishing the tail). Leaving is not an error: the coordinator owns
      // completion, we only owe it our exports.
      return report;
    }
    backoff.OnFailure();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.JitteredMs()));
  }
}

// -- DriveShards -------------------------------------------------------------

Result<DriveReport> DriveShards(
    const std::string& matrix_name,
    const std::vector<sql::SelectQuery>& queries,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& context, const ShardPlan& plan,
    store::MatrixStore& store, LeaseBoard& board,
    const MultiHostOptions& options, const ShardRuntime& runtime) {
  const uint32_t k = static_cast<uint32_t>(plan.shard_count());
  if (k == 0) {
    return Status::InvalidArgument("shard driver: plan has no shards");
  }
  if (plan.n != queries.size()) {
    return Status::InvalidArgument(
        "shard driver: plan is for n = " + std::to_string(plan.n) +
        " queries but the log holds " + std::to_string(queries.size()));
  }
  obs::MetricsRegistry& metrics = RegistryOrDefault(runtime.metrics);
  obs::TraceSpan drive_span("driver.drive", runtime.trace,
                            &metrics.histogram("driver.drive_ms"));

  DriveReport report;
  report.matrix = distance::DistanceMatrix(plan.n);
  std::vector<bool> merged(k, false);
  std::vector<bool> self_done(k, false);  ///< exported by our self-finish
  std::vector<int> discards(k, 0);
  // Shards the driver may finish itself: a range becomes self-acquirable
  // the moment its (dead) holder's lease was reclaimed, or after the claim
  // grace if nobody ever leased it. The grace (default: one board TTL)
  // gives real workers first claim; the immediate flag after an expiry
  // meets the latency bound (TTL + one backoff cap, not TTL + grace + cap).
  std::vector<bool> self_allowed(k, false);
  const int claim_grace_ms = options.claim_grace_ms >= 0
                                 ? options.claim_grace_ms
                                 : board.ttl_ms();
  common::Backoff backoff(kPollBackoff);
  const Clock::time_point started = Clock::now();
  Clock::time_point last_progress = started;
  uint32_t merged_count = 0;

  obs::Log(obs::LogLevel::kInfo, "driver", "drive started",
           {{"matrix", matrix_name},
            {"shards", std::to_string(k)},
            {"n", std::to_string(plan.n)}});

  while (merged_count < k) {
    bool progress = false;
    bool self_finished_this_round = false;

    for (uint32_t s = 0; s < k; ++s) {
      if (merged[s]) continue;

      // 1) Landed? Validate against the plan and merge immediately — no
      //    barrier on the other k-1 shards.
      if (store.HasShard(matrix_name, s, k)) {
        Result<store::ShardFile> shard = store.ReadShard(matrix_name, s, k);
        Status merged_status = shard.ok() ? Status::OK()
                                          : Status(shard.status());
        if (shard.ok()) {
          const store::ShardManifest& m = shard->manifest;
          const RowRange& range = plan.ranges[s];
          if (m.n != plan.n || m.row_begin != range.begin ||
              m.row_end != range.end) {
            // A manifest that disagrees with the deterministic plan is a
            // foreign or doctored export: corrupt for our purposes.
            merged_status = Status::ParseError(
                "shard " + std::to_string(s) +
                " manifest disagrees with the derived plan");
          } else {
            // ReadShard sized the cells from these rows, and its manifest
            // check keeps them inside [0, n).
            distance::DistanceTriangle::CopyRows(shard->cells, range.begin,
                                                 range.end, &report.matrix);
          }
        }
        if (merged_status.ok()) {
          merged[s] = true;
          ++merged_count;
          if (!self_done[s]) ++report.merged_from_workers;
          metrics.counter("driver.shards_merged", {{"matrix", matrix_name}})
              .Increment();
          progress = true;
        } else if (merged_status.code() == StatusCode::kNotFound) {
          // Raced a reclaim/remove between HasShard and ReadShard: the
          // file is simply gone again — next round.
        } else {
          // Corrupt export: discard and let whoever holds (or steals) the
          // range recompute. Capped per shard so a pathological disk
          // cannot loop forever.
          if (++discards[s] > kMaxDiscardsPerShard) {
            return Status::ExecutionError(
                "shard driver: shard " + std::to_string(s) + " discarded " +
                std::to_string(discards[s] - 1) +
                " times without a clean export; giving up (" +
                merged_status.message() + ")");
          }
          ++report.discards;
          metrics.counter("driver.shard_discards", {{"matrix", matrix_name}})
              .Increment();
          obs::Log(obs::LogLevel::kWarn, "driver",
                   "discarding corrupt shard export",
                   {{"matrix", matrix_name},
                    {"shard", std::to_string(s)},
                    {"error", std::string(merged_status.message())}});
          DPE_RETURN_NOT_OK(store.RemoveShard(matrix_name, s, k));
          self_allowed[s] = true;  // its computer may be gone; don't wait
          progress = true;
        }
        continue;
      }

      // 2) Not landed. Expired holder? Reclaim so survivors (or we) can
      //    take the range over.
      DPE_ASSIGN_OR_RETURN(const bool reclaimed, board.ReclaimExpired(s));
      if (reclaimed) {
        ++report.lease_expiries;
        metrics.counter("driver.lease_expiries").Increment();
        obs::Log(obs::LogLevel::kWarn, "driver",
                 "lease expired; range reassigned",
                 {{"matrix", matrix_name}, {"shard", std::to_string(s)}});
        // The holder is presumed dead — the range must not also wait out
        // the claim grace.
        self_allowed[s] = true;
        progress = true;
      } else if (ElapsedMs(started) >= claim_grace_ms) {
        self_allowed[s] = true;
      }

      // 3) Self-finish one unclaimed range per round: the coordinator
      //    keeps the build moving even with zero live workers, without
      //    hogging ranges a late-joining worker could take.
      if (self_allowed[s] && !self_finished_this_round) {
        DPE_ASSIGN_OR_RETURN(const bool acquired, board.TryAcquire(s));
        if (acquired) {
          obs::Log(obs::LogLevel::kInfo, "driver", "self-finishing range",
                   {{"matrix", matrix_name}, {"shard", std::to_string(s)}});
          DPE_RETURN_NOT_OK(RunLeasedShard(matrix_name, queries, measure,
                                           context, plan, s, store, board,
                                           runtime, /*faults=*/nullptr,
                                           "driver.self_finished"));
          ++report.self_finished;
          self_done[s] = true;
          self_finished_this_round = true;
          progress = true;
          // The file is on disk now; the merge happens on the next round's
          // sweep of this shard.
        }
      }
    }

    ++report.poll_rounds;
    if (merged_count == k) break;
    if (progress) {
      backoff.OnSuccess();
      last_progress = Clock::now();
      continue;
    }
    if (options.stall_timeout_ms > 0 &&
        ElapsedMs(last_progress) >= options.stall_timeout_ms) {
      return Status::ExecutionError(
          "shard driver: no progress for " +
          std::to_string(options.stall_timeout_ms) +
          " ms with " + std::to_string(k - merged_count) +
          " of " + std::to_string(k) + " shards outstanding");
    }
    backoff.OnFailure();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff.JitteredMs()));
  }

  metrics.counter("driver.drives", {{"matrix", matrix_name}}).Increment();
  obs::Log(obs::LogLevel::kInfo, "driver", "drive complete",
           {{"matrix", matrix_name},
            {"from_workers", std::to_string(report.merged_from_workers)},
            {"self_finished", std::to_string(report.self_finished)},
            {"lease_expiries", std::to_string(report.lease_expiries)}});
  return report;
}

}  // namespace dpe::engine
