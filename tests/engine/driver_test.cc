// The fault-tolerant shard driver (engine/driver.h): lease-file atomicity,
// heartbeat freshness, expiry + stealing, the worker loop, and the
// incrementally-merging coordinator — including the degraded modes (dead
// workers, wedged workers, corrupt exports, coordinator-only builds). Every
// merged matrix must be bit-identical to the direct single-process build.
// Real process deaths (die/_exit at injection points) are bench_multihost's
// territory; here workers are threads and death is simulated by acquiring
// a lease and never renewing it.

#include "engine/driver.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "engine/engine.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::MergeShardDir;
using testutil::Shop;

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("driver_test_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  std::unique_ptr<LeaseBoard> OpenBoard(uint32_t shards, int ttl_ms,
                                        const std::string& host) {
    LeaseBoard::Options options;
    options.dir = dir_;
    options.matrix = "token";
    options.shard_count = shards;
    options.ttl_ms = ttl_ms;
    options.host = host;
    auto board = LeaseBoard::Open(options);
    EXPECT_TRUE(board.ok()) << board.status();
    return std::move(board).value();
  }

  std::string dir_;
};

// -- Lease protocol ----------------------------------------------------------

TEST_F(DriverTest, OpenValidatesItsOptions) {
  LeaseBoard::Options options;
  options.dir = dir_;
  options.matrix = "token";
  options.shard_count = 0;
  options.ttl_ms = 100;
  EXPECT_EQ(LeaseBoard::Open(options).status().code(),
            StatusCode::kInvalidArgument);
  options.shard_count = 2;
  options.ttl_ms = 0;
  EXPECT_EQ(LeaseBoard::Open(options).status().code(),
            StatusCode::kInvalidArgument);
  options.ttl_ms = 100;
  options.dir = dir_ + "/does-not-exist";
  EXPECT_EQ(LeaseBoard::Open(options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverTest, AcquireIsExclusiveAcrossBoards) {
  auto a = OpenBoard(2, 60000, "host-a");
  auto b = OpenBoard(2, 60000, "host-b");

  auto first = a->TryAcquire(0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);

  auto second = b->TryAcquire(0);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(*second) << "a fresh lease must not be acquirable twice";

  auto other = b->TryAcquire(1);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(*other) << "a different shard is independent";

  EXPECT_EQ(a->TryAcquire(2).status().code(), StatusCode::kInvalidArgument)
      << "shard index out of range";
}

TEST_F(DriverTest, ReleaseFreesTheLease) {
  auto a = OpenBoard(1, 60000, "host-a");
  auto b = OpenBoard(1, 60000, "host-b");
  ASSERT_TRUE(*a->TryAcquire(0));
  ASSERT_TRUE(a->Release(0).ok());
  EXPECT_TRUE(*b->TryAcquire(0)) << "released lease is immediately takeable";
  EXPECT_TRUE(b->Release(0).ok());
  EXPECT_TRUE(b->Release(0).ok()) << "double release is OK";
}

TEST_F(DriverTest, SnapshotShowsHolderIdentityAndRenewals) {
  auto a = OpenBoard(3, 60000, "host-a");
  ASSERT_TRUE(*a->TryAcquire(1));
  ASSERT_TRUE(a->Renew(1).ok());
  ASSERT_TRUE(a->Renew(1).ok());

  auto table = a->Snapshot();
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->size(), 3u);
  EXPECT_FALSE((*table)[0].held);
  EXPECT_TRUE((*table)[1].held);
  EXPECT_TRUE((*table)[1].fresh);
  EXPECT_EQ((*table)[1].holder_host, "host-a");
  EXPECT_EQ((*table)[1].holder_pid, static_cast<int64_t>(::getpid()));
  EXPECT_EQ((*table)[1].epoch, 1u);
  EXPECT_EQ((*table)[1].renewals, 2u);
  EXPECT_FALSE((*table)[2].held);
}

TEST_F(DriverTest, ReportProgressPublishesCellsThroughRenew) {
  auto a = OpenBoard(2, 60000, "host-a");
  ASSERT_TRUE(*a->TryAcquire(0));

  // Progress lands on the held record; the next renew's rewrite carries it
  // into the lease line, where any board's snapshot can read it back.
  a->ReportProgress(0, 123);
  ASSERT_TRUE(a->Renew(0).ok());

  auto b = OpenBoard(2, 60000, "host-b");
  auto table = b->Snapshot();
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)[0].cells, 123u);
  EXPECT_EQ((*table)[1].cells, 0u);

  // Progress on an unheld shard is informational noise: dropped, no error.
  a->ReportProgress(1, 999);
  auto after = a->Snapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE((*after)[1].held);
}

TEST_F(DriverTest, HeartbeatForwardsLiveProgressIntoTheLeaseLine) {
  auto holder = OpenBoard(1, 60000, "host-a");
  auto observer = OpenBoard(1, 60000, "host-b");
  ASSERT_TRUE(*holder->TryAcquire(0));

  std::atomic<uint64_t> progress{0};
  {
    LeaseHeartbeat heartbeat(holder.get(), 0, /*interval_ms=*/30, &progress);
    progress.store(4096, std::memory_order_relaxed);
    // Wait until a beat after the store has published the count.
    uint64_t seen = 0;
    for (int i = 0; i < 400; ++i) {
      auto table = observer->Snapshot();
      ASSERT_TRUE(table.ok());
      seen = (*table)[0].cells;
      if (seen == 4096u) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(seen, 4096u)
        << "the heartbeat must publish the builder's progress";
  }
}

TEST_F(DriverTest, RenewRequiresHoldingTheLease) {
  auto a = OpenBoard(1, 60000, "host-a");
  EXPECT_EQ(a->Renew(0).code(), StatusCode::kInvalidArgument);
}

TEST_F(DriverTest, ExpiredLeaseIsStolenWithABumpedEpoch) {
  auto dead = OpenBoard(1, 80, "host-dead");
  auto live = OpenBoard(1, 80, "host-live");
  ASSERT_TRUE(*dead->TryAcquire(0));

  // Fresh: not stealable.
  EXPECT_FALSE(*live->TryAcquire(0));

  // The holder never renews; past the TTL anyone may steal.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto stolen = live->TryAcquire(0);
  ASSERT_TRUE(stolen.ok()) << stolen.status();
  EXPECT_TRUE(*stolen);

  auto table = live->Snapshot();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)[0].holder_host, "host-live");
  EXPECT_EQ((*table)[0].epoch, 2u) << "a steal bumps the epoch";
}

TEST_F(DriverTest, ReclaimExpiredFreesWithoutTaking) {
  auto dead = OpenBoard(1, 80, "host-dead");
  auto coordinator = OpenBoard(1, 80, "host-coord");
  ASSERT_TRUE(*dead->TryAcquire(0));

  auto fresh = coordinator->ReclaimExpired(0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(*fresh) << "a fresh lease must not be reclaimed";

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto reclaimed = coordinator->ReclaimExpired(0);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_TRUE(*reclaimed);

  auto table = coordinator->Snapshot();
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE((*table)[0].held) << "reclaim unlinks, it does not take";

  auto again = coordinator->ReclaimExpired(0);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again) << "nothing left to reclaim";
}

TEST_F(DriverTest, HeartbeatKeepsALeaseFreshPastManyTtls) {
  auto holder = OpenBoard(1, 200, "host-a");
  auto rival = OpenBoard(1, 200, "host-b");
  ASSERT_TRUE(*holder->TryAcquire(0));
  {
    LeaseHeartbeat heartbeat(holder.get(), 0, /*interval_ms=*/40);
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    EXPECT_FALSE(*rival->TryAcquire(0))
        << "a heartbeating lease must never be stolen";
    EXPECT_GE(heartbeat.renewals(), 5u);
  }
  // Heartbeat stopped: the lease now ages out and becomes stealable.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(*rival->TryAcquire(0));
}

TEST_F(DriverTest, GarbledLeaseContentStillProtectsFreshness) {
  auto a = OpenBoard(1, 60000, "host-a");
  ASSERT_TRUE(*a->TryAcquire(0));
  {
    std::ofstream out(a->LeasePath(0), std::ios::trunc | std::ios::binary);
    out << "\x01garbage\xff not a lease line at all";
  }
  auto b = OpenBoard(1, 60000, "host-b");
  EXPECT_FALSE(*b->TryAcquire(0))
      << "freshness rides on mtime, not parseable content";
  auto table = b->Snapshot();
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)[0].held);
  EXPECT_TRUE((*table)[0].fresh);
  EXPECT_EQ((*table)[0].epoch, 0u) << "unknown holder, not an error";
}

// -- Worker loop + driver ----------------------------------------------------

struct BuildFixture {
  workload::Scenario scenario;
  distance::MeasureContext context;
  std::unique_ptr<distance::QueryDistanceMeasure> measure;
  distance::DistanceMatrix reference;

  static BuildFixture Make(size_t n) {
    BuildFixture f{Shop(61, n), {}, nullptr, {}};
    f.context = f.scenario.Context();
    auto measure = MeasureRegistry::WithBuiltins().Create("token");
    EXPECT_TRUE(measure.ok());
    f.measure = std::move(measure).value();
    MatrixBuilder builder(nullptr, MatrixBuilderOptions{4});
    auto reference = builder.Build(f.scenario.log, *f.measure, f.context);
    EXPECT_TRUE(reference.ok()) << reference.status();
    f.reference = std::move(reference).value();
    return f;
  }
};

TEST_F(DriverTest, SoloWorkerExportsEveryShard) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 3);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto board = OpenBoard(3, 60000, "worker-1");

  auto report = RunWorkerLoop("token", f.scenario.log, *f.measure, f.context,
                              *plan, *store, *board, MultiHostOptions{});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->computed, 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(store->HasShard("token", s, 3));
  }
  // No leases left behind.
  auto table = board->Snapshot();
  ASSERT_TRUE(table.ok());
  for (const LeaseInfo& lease : *table) EXPECT_FALSE(lease.held);

  // The exported set merges bit-identical to the direct build.
  auto merged = MergeShardDir(dir_, "token", f.scenario.log, *f.measure,
                              f.context, *plan);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->merged_from_workers, 3u);
  ExpectBitIdentical(merged->matrix, f.reference);
}

TEST_F(DriverTest, CoordinatorOnlyDriveCompletesWithZeroWorkers) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 3);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto board = OpenBoard(3, 60000, "coordinator");

  MultiHostOptions options;
  options.claim_grace_ms = 0;  // nobody is coming — don't wait for them
  auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                            *plan, *store, *board, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->self_finished, 3u);
  EXPECT_EQ(report->merged_from_workers, 0u);
  ExpectBitIdentical(report->matrix, f.reference);
}

TEST_F(DriverTest, DriveMergesLiveWorkersIncrementally) {
  BuildFixture f = BuildFixture::Make(32);
  auto plan = PlanShards(f.scenario.log.size(), 4);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto worker_store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(worker_store.ok());
  auto driver_board = OpenBoard(4, 60000, "coordinator");

  // Two worker threads with their own boards (separate processes in real
  // deployments — the directory is the shared medium either way).
  auto board_1 = OpenBoard(4, 60000, "worker-1");
  auto board_2 = OpenBoard(4, 60000, "worker-2");
  std::thread worker_1([&] {
    auto report = RunWorkerLoop("token", f.scenario.log, *f.measure,
                                f.context, *plan, *worker_store, *board_1,
                                MultiHostOptions{});
    EXPECT_TRUE(report.ok()) << report.status();
  });
  std::thread worker_2([&] {
    auto report = RunWorkerLoop("token", f.scenario.log, *f.measure,
                                f.context, *plan, *worker_store, *board_2,
                                MultiHostOptions{});
    EXPECT_TRUE(report.ok()) << report.status();
  });

  // The coordinator may self-finish after the claim grace (one TTL), but
  // the workers should beat it.
  auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                            *plan, *store, *driver_board, MultiHostOptions{});
  worker_1.join();
  worker_2.join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->merged_from_workers + report->self_finished, 4u);
  ExpectBitIdentical(report->matrix, f.reference);
}

TEST_F(DriverTest, DeadWorkersLeaseIsReclaimedAndRangeRedone) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 3);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());

  // A "worker" that acquired shard 1 and died: lease exists, no renewals,
  // no shard file ever lands.
  const int ttl_ms = 300;
  auto dead = OpenBoard(3, ttl_ms, "host-dead");
  ASSERT_TRUE(*dead->TryAcquire(1));

  auto board = OpenBoard(3, ttl_ms, "coordinator");
  MultiHostOptions options;
  options.claim_grace_ms = 0;
  const auto started = std::chrono::steady_clock::now();
  auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                            *plan, *store, *board, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->lease_expiries, 1u);
  EXPECT_EQ(report->self_finished, 3u);
  ExpectBitIdentical(report->matrix, f.reference);

  // The latency bound: the dead worker stalls the build at most one TTL
  // plus one poll-backoff cap (2000ms default) — far under the stall
  // watchdog. Generous envelope to stay unflaky under load.
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, std::chrono::milliseconds(ttl_ms + 2000 + 8000));
}

TEST_F(DriverTest, WedgedWorkerIsStolenFromAndHarmlessOnResume) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 2);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto worker_store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(worker_store.ok());

  const int ttl_ms = 250;
  auto worker_board = OpenBoard(2, ttl_ms, "host-wedgy");
  auto driver_board = OpenBoard(2, ttl_ms, "coordinator");

  // The worker wedges right after its first acquire, BEFORE its heartbeat
  // starts — the wedge-without-heartbeat mode. The cap lets it resume
  // later, by which time its range was stolen and finished; the resumed
  // worker must finish cleanly (idempotent exports) without corrupting
  // anything.
  common::FaultInjector faults;
  ASSERT_TRUE(faults.Arm("worker.acquired=wedge:1200"));

  std::thread worker([&] {
    auto report = RunWorkerLoop("token", f.scenario.log, *f.measure,
                                f.context, *plan, *worker_store,
                                *worker_board, MultiHostOptions{},
                                {.faults = &faults});
    EXPECT_TRUE(report.ok()) << report.status();
  });

  auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                            *plan, *store, *driver_board, MultiHostOptions{});
  worker.join();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->lease_expiries, 1u)
      << "the wedged worker's unrenewed lease must expire";
  ExpectBitIdentical(report->matrix, f.reference);
}

TEST_F(DriverTest, WorkerHeartbeatKeepsAShortTtlLeaseFromBeingStolen) {
  // Only the TTL is set: the worker's heartbeat follows from it, so even a
  // TTL well under a second keeps a live holder's lease fresh while it
  // computes.
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 1);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const int ttl_ms = 200;
  auto holder = OpenBoard(1, ttl_ms, "host-holder");
  auto rival = OpenBoard(1, ttl_ms, "host-rival");

  // worker.export fires once the heartbeat runs: a 700 ms wedge there
  // stands in for a compute that outlasts the TTL several times over.
  common::FaultInjector faults;
  ASSERT_TRUE(faults.Arm("worker.export=wedge:700"));
  std::thread worker([&] {
    auto report = RunWorkerLoop("token", f.scenario.log, *f.measure,
                                f.context, *plan, *store, *holder,
                                MultiHostOptions{}, {.faults = &faults});
    EXPECT_TRUE(report.ok()) << report.status();
  });
  for (int i = 0; i < 400; ++i) {
    auto table = rival->Snapshot();
    if (table.ok() && (*table)[0].held) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Two TTLs into the holder's compute.
  std::this_thread::sleep_for(std::chrono::milliseconds(2 * ttl_ms));
  auto stolen = rival->TryAcquire(0);
  worker.join();
  ASSERT_TRUE(stolen.ok()) << stolen.status();
  EXPECT_FALSE(*stolen) << "a peer stole the lease of a live holder";
  EXPECT_TRUE(store->HasShard("token", 0, 1));
}

TEST_F(DriverTest, CorruptExportIsDiscardedAndRecomputed) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 3);
  ASSERT_TRUE(plan.ok());

  // What sits where shard 1's export should be: garbage, prefixes of a
  // real export (a writer killed without the tmp + rename, a torn
  // filesystem) and the real export with one byte flipped.
  const std::string path = dir_ + "/shard-token-1of3.dpe";
  std::string real;
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ShardWorker worker(nullptr);
    ASSERT_TRUE(worker
                    .Run("token", f.scenario.log, *f.measure, f.context,
                         *plan, 1, *store)
                    .ok());
    std::ifstream in(path, std::ios::binary);
    real.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(real.size(), 16u);
  std::string flipped = real;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x08);
  const std::vector<std::string> exports = {
      "this is not a DPEH frame",
      "",
      real.substr(0, 8),
      real.substr(0, real.size() / 2),
      real.substr(0, real.size() - 1),
      flipped,
  };

  for (const std::string& bytes : exports) {
    SCOPED_TRACE("corrupt export of " + std::to_string(bytes.size()) +
                 " bytes");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->HasShard("token", 1, 3));

    auto board = OpenBoard(3, 60000, "coordinator");
    MultiHostOptions options;
    options.claim_grace_ms = 0;
    auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                              *plan, *store, *board, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GE(report->discards, 1u);
    ExpectBitIdentical(report->matrix, f.reference);
  }
}

TEST_F(DriverTest, ForeignManifestIsDiscardedNotMerged) {
  BuildFixture f = BuildFixture::Make(24);
  auto plan = PlanShards(f.scenario.log.size(), 2);
  ASSERT_TRUE(plan.ok());
  const std::vector<RowRange>& ranges = plan->ranges;
  ASSERT_GT(ranges[0].end, 1u);
  ASSERT_LT(ranges[1].begin + 1, ranges[1].end);

  // CRC-valid shard files whose manifests disagree with the derived plan: a
  // different row split, a range overlapping its predecessor or leaving a
  // gap before it, a range past the end of the log, and another log size.
  // The frames are written directly, since WriteShard refuses rows past n.
  struct Doctored {
    const char* what;
    uint32_t shard;
    uint32_t row_begin;
    uint32_t row_end;
    uint32_t n;
  };
  const uint32_t n = static_cast<uint32_t>(f.scenario.log.size());
  const uint32_t begin_1 = static_cast<uint32_t>(ranges[1].begin);
  const uint32_t end_1 = static_cast<uint32_t>(ranges[1].end);
  const std::vector<Doctored> cases = {
      {"wrong row split", 0, 0, static_cast<uint32_t>(ranges[0].end) - 1, n},
      {"overlapping ranges", 1, begin_1 - 1, end_1, n},
      {"gap between ranges", 1, begin_1 + 1, end_1, n},
      {"range past n", 1, begin_1, n + 5, n},
      {"wrong n", 1, begin_1, end_1, n + 6},
  };
  for (const Doctored& c : cases) {
    SCOPED_TRACE(c.what);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    store::ShardManifest foreign;
    foreign.matrix = "token";
    foreign.shard_index = c.shard;
    foreign.shard_count = 2;
    foreign.n = c.n;
    foreign.row_begin = c.row_begin;
    foreign.row_end = c.row_end;
    store::Writer w;
    store::EncodeShardManifest(foreign, &w);
    const std::vector<double> cells(
        distance::DistanceTriangle::CellCount(c.row_end) -
            distance::DistanceTriangle::CellCount(c.row_begin),
        1.0);
    w.PutDoubles(cells);
    const std::string path =
        dir_ + "/shard-token-" + std::to_string(c.shard) + "of2.dpe";
    ASSERT_TRUE(store::WriteFramedFile(path, store::kShardMagic, w.buffer(),
                                       store::kShardFormatVersion)
                    .ok());

    auto board = OpenBoard(2, 60000, "coordinator");
    MultiHostOptions options;
    options.claim_grace_ms = 0;
    auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                              *plan, *store, *board, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GE(report->discards, 1u);
    ExpectBitIdentical(report->matrix, f.reference);
  }
}

TEST_F(DriverTest, StallWatchdogFailsInsteadOfHangingForever) {
  BuildFixture f = BuildFixture::Make(12);
  auto plan = PlanShards(f.scenario.log.size(), 2);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto board = OpenBoard(2, 60000, "coordinator");

  // No workers, and a claim grace past the watchdog keeps the coordinator
  // from finishing the ranges itself: nothing can land in time.
  MultiHostOptions options;
  options.stall_timeout_ms = 400;
  options.claim_grace_ms = 60000;
  auto report = DriveShards("token", f.scenario.log, *f.measure, f.context,
                            *plan, *store, *board, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kExecutionError);
}

// -- Engine facade -----------------------------------------------------------

TEST_F(DriverTest, EngineDriveShardsMatchesBuildMatrixAndWarmsCache) {
  workload::Scenario s = Shop(61, 24);
  EngineOptions eopts;
  eopts.threads = 2;
  eopts.block = 4;
  Engine reference_engine(s.Context(), eopts);
  reference_engine.SetLog(s.log);
  auto reference = reference_engine.BuildMatrix("token");
  ASSERT_TRUE(reference.ok()) << reference.status();

  Engine e(s.Context(), eopts);
  e.SetLog(s.log);
  MultiHostOptions options;
  options.claim_grace_ms = 0;  // no workers in this test
  auto report = e.DriveShards("token", 3, dir_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ExpectBitIdentical(report->matrix, *reference);

  // The drive's pairs warmed the cache: a subsequent build computes 0 cells.
  auto again = e.BuildMatrix("token");
  ASSERT_TRUE(again.ok());
  ExpectBitIdentical(*again, *reference);
  EXPECT_EQ(e.last_build_report().cells_computed, 0u);

  // After the drive, /stats carries no lease table.
  EXPECT_EQ(e.Stats().ToJson().find("\"leases\""), std::string::npos);

  // A typo'd measure name fails fast instead of warming the cache with
  // unreachable entries.
  EXPECT_EQ(e.DriveShards("tokn", 3, dir_, options).status().code(),
            StatusCode::kNotFound);
}

TEST_F(DriverTest, WorkerAndCoordinatorAtDifferentBlockSizesMerge) {
  // The tile edge is a per-host cache-tiling knob: it must not reach the
  // plan or the shard files, so a worker at block 4 and a coordinator at
  // block 8 agree on every shard and the coordinator merges all of them.
  workload::Scenario s = Shop(61, 24);
  EngineOptions worker_options;
  worker_options.threads = 2;
  worker_options.block = 4;
  Engine worker(s.Context(), worker_options);
  worker.SetLog(s.log);
  auto exported = worker.RunShardWorker("token", 2, dir_);
  ASSERT_TRUE(exported.ok()) << exported.status();
  EXPECT_EQ(exported->computed, 2u);

  EngineOptions coordinator_options = worker_options;
  coordinator_options.block = 8;
  Engine coordinator(s.Context(), coordinator_options);
  coordinator.SetLog(s.log);
  auto report = coordinator.DriveShards("token", 2, dir_);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->merged_from_workers, 2u);
  EXPECT_EQ(report->discards, 0u);
  EXPECT_EQ(report->self_finished, 0u);
  auto reference = coordinator.BuildMatrix("token");
  ASSERT_TRUE(reference.ok());
  ExpectBitIdentical(report->matrix, *reference);
}

TEST_F(DriverTest, DriveWarmUpSurvivesARestartFromTheCheckpoint) {
  // The rows a drive merges are journaled like a build's, so a restart
  // from the engine's checkpoint keeps them instead of recomputing the
  // whole matrix.
  workload::Scenario s = Shop(61, 40);
  const std::vector<sql::SelectQuery> log(s.log.begin(), s.log.begin() + 30);
  const std::string checkpoint = dir_ + "/checkpoint";
  const std::string shards = dir_ + "/shards";
  EngineOptions eopts;
  eopts.threads = 2;
  eopts.block = 8;

  Engine e(s.Context(), eopts);
  e.SetLog(log);
  ASSERT_TRUE(e.SaveCheckpoint(checkpoint).ok());
  MultiHostOptions options;
  options.claim_grace_ms = 0;  // no workers in this test
  ASSERT_TRUE(e.DriveShards("token", 2, shards, options).ok());
  ASSERT_TRUE(e.AddQuery(s.log[30]).ok());
  ASSERT_TRUE(e.BuildMatrix("token").ok());
  EXPECT_EQ(e.last_build_report().cells_computed, 30u);

  Engine restarted(s.Context(), eopts);
  ASSERT_TRUE(restarted.LoadCheckpoint(checkpoint).ok());
  auto built = restarted.BuildMatrix("token");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(restarted.last_build_report().cells_computed, 0u);

  Engine reference(s.Context(), eopts);
  reference.SetLog({s.log.begin(), s.log.begin() + 31});
  auto expected = reference.BuildMatrix("token");
  ASSERT_TRUE(expected.ok());
  ExpectBitIdentical(*built, *expected);
}

TEST_F(DriverTest, StatsExposesTheLeaseTableWhileADriveIsActive) {
  workload::Scenario s = Shop(61, 16);
  EngineOptions eopts;
  eopts.threads = 2;
  eopts.block = 4;
  Engine e(s.Context(), eopts);
  e.SetLog(s.log);

  // Pin shard 0 with an external fresh lease so the drive must wait for
  // it: while it waits, Stats() must render the live lease table.
  auto external = OpenBoard(1, 60000, "host-external");
  ASSERT_TRUE(*external->TryAcquire(0));

  std::thread driver_thread([&] {
    // The coordinator cannot take shard 0 while the external lease is
    // fresh, so it waits for "the worker" (us).
    MultiHostOptions options;
    options.stall_timeout_ms = 20000;
    auto report = e.DriveShards("token", 1, dir_, options);
    EXPECT_TRUE(report.ok()) << report.status();
  });

  // Poll until the drive is registered and the table shows the holder.
  std::string json;
  for (int i = 0; i < 400; ++i) {
    json = e.Stats().ToJson();
    if (json.find("host-external") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(json.find("\"drive_matrix\": \"token\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"leases\""), std::string::npos);
  EXPECT_NE(json.find("host-external"), std::string::npos);
  EXPECT_NE(json.find("\"renewals\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos)
      << "the lease table must carry per-worker progress";

  // Play the worker: export shard 0 and release — the drive completes.
  auto plan = PlanShards(s.log.size(), 1);
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto measure = MeasureRegistry::WithBuiltins().Create("token");
  ASSERT_TRUE(measure.ok());
  ShardWorker worker(nullptr);
  ASSERT_TRUE(
      worker.Run("token", s.log, **measure, s.Context(), *plan, 0, *store)
          .ok());
  ASSERT_TRUE(external->Release(0).ok());
  driver_thread.join();
}

}  // namespace
}  // namespace dpe::engine
