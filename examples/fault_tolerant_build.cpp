// Fault-tolerant multi-host build walkthrough: the O(n²) distance-matrix
// construction split across workers that share nothing but a directory,
// where workers are expendable.
//
//   $ ./build/fault_tolerant_build
//
// 1. A worker thread and the coordinator share nothing but a directory.
//    Lease files (O_EXCL-created, heartbeat-renewed) arbitrate who
//    computes which shard; the plan itself is derived, never assigned.
// 2. A second "worker" acquires a lease and dies immediately — simulated
//    here by acquiring through a LeaseBoard of its own and never renewing,
//    which is byte-for-byte what a crashed host leaves behind.
// 3. The coordinator detects the dead worker by heartbeat timeout,
//    reclaims the lease so the range can be redone, and finishes any
//    range nobody claims — the build completes even if every worker dies,
//    and the merged matrix is bit-identical to a direct build.
//
// The crash-injection harness (bench/bench_multihost.cc) runs the same
// flow with real forked processes and scripted kills at every crash point.

#include <cstdio>
#include <filesystem>
#include <thread>

#include "engine/driver.h"
#include "engine/engine.h"
#include "workload/scenarios.h"

using namespace dpe;

int main() {
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 13;
  scenario_options.rows_per_relation = 40;
  scenario_options.log_size = 48;
  auto scenario = workload::MakeShopScenario(scenario_options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_fault_tolerant_example")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  constexpr size_t kShards = 4;
  engine::EngineOptions options{.threads = 2, .block = 16};
  const int kTtlMs = 600;

  // --- The ground truth to compare against. -------------------------------
  engine::Engine direct(scenario->Context(), options);
  direct.SetLog(scenario->log);
  auto reference = direct.BuildMatrix("token");
  if (!reference.ok()) {
    std::fprintf(stderr, "direct build: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  // --- A worker that dies right after acquiring shard 1. ------------------
  // A crashed host leaves exactly this: a lease file that stops renewing.
  auto dead_board = engine::LeaseBoard::Open({.dir = dir,
                                              .matrix = "token",
                                              .shard_count = kShards,
                                              .ttl_ms = kTtlMs,
                                              .host = "worker-that-dies"});
  if (!dead_board.ok() || !(*dead_board)->TryAcquire(1).value_or(false)) {
    std::fprintf(stderr, "could not stage the dead worker's lease\n");
    return 1;
  }
  std::printf("worker 'worker-that-dies' acquired shard 1 and crashed\n");

  // --- One healthy worker, running concurrently with the coordinator. ----
  std::thread worker([&] {
    engine::Engine worker_engine(scenario->Context(), options);
    worker_engine.SetLog(scenario->log);
    auto report = worker_engine.RunShardWorker("token", kShards, dir,
                                               {.ttl_ms = kTtlMs});
    if (report.ok()) {
      std::printf("worker 'healthy' exported %u shard(s)\n",
                  report->computed);
    }
  });

  // --- The coordinator: merge as shards land, reclaim the dead lease. ----
  engine::Engine coordinator(scenario->Context(), options);
  coordinator.SetLog(scenario->log);
  auto drive =
      coordinator.DriveShards("token", kShards, dir, {.ttl_ms = kTtlMs});
  worker.join();
  if (!drive.ok()) {
    std::fprintf(stderr, "drive: %s\n", drive.status().ToString().c_str());
    return 1;
  }

  std::printf("\ndrive complete:\n");
  std::printf("  shards from workers : %u\n", drive->merged_from_workers);
  std::printf("  self-finished       : %u\n", drive->self_finished);
  std::printf("  lease expiries      : %u\n", drive->lease_expiries);
  if (drive->lease_expiries > 0) {
    std::printf("  -> the coordinator detected the dead worker by heartbeat "
                "timeout and reclaimed its lease\n");
  } else {
    std::printf("  -> the healthy worker stole the dead worker's expired "
                "lease before the coordinator's reclaim saw it — work "
                "stealing in action\n");
  }

  auto delta = distance::DistanceMatrix::MaxAbsDifference(drive->matrix,
                                                          *reference);
  if (!delta.ok() || *delta != 0.0) {
    std::fprintf(stderr, "merged matrix differs from the direct build!\n");
    return 1;
  }
  std::printf("\nmerged matrix is bit-identical to the direct build "
              "(max |delta| = 0)\n");
  std::filesystem::remove_all(dir);
  return 0;
}
