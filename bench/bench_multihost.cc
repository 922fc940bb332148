// Multi-host fault-tolerance harness: forks k *real* worker processes that
// coordinate a sharded matrix build through lease files (engine/driver.h),
// kills a scripted subset of them at deterministic crash points
// (common/fault.h), and asserts the coordinator still produces a matrix
// bit-identical to the direct single-process build.
//
// Fault modes exercised (one scenario each, plus clean and all-dead):
//   die-before-export       worker.export=die       lease held, no file
//   die-mid-frame-write     store.frame.mid_write=die  torn tmp left behind
//   wedge-without-heartbeat worker.acquired=wedge   alive but silent; the
//                           parent SIGKILLs it once the drive completes
//   double-acquire race     worker.acquired=wedge:<cap>  capped wedge: the
//                           lease expires and is stolen, then the original
//                           holder *resumes* and re-exports — two holders of
//                           one range, resolved by idempotent exports
//
//   $ ./build/bench_multihost            # all scenarios, k = 3 workers (CI)
//   $ ./build/bench_multihost --smoke    # clean + one injected kill
//
// Every scenario is also a latency probe: a dead or wedged worker must not
// stall the build longer than the lease TTL + backoff slack, and the JSON
// artifact (BENCH_multihost.json) records drive wall time per scenario so
// CI archives the recovery-latency trajectory.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "engine/engine.h"

using namespace dpe;

namespace {

struct Scenario {
  std::string name;
  /// One fault spec (common/fault.h grammar) per worker; "" = a healthy
  /// worker.
  std::vector<std::string> worker_faults;
  /// Workers expected to survive to the end but wedged: the parent
  /// SIGKILLs them after the drive completes instead of waiting.
  bool kill_wedged_after_drive = false;
  /// Sanity floor on the drive report, scenario-specific.
  uint32_t min_expiries = 0;
  uint32_t min_kills = 0;
  /// Recovery-latency ceiling in ms; 0 = unbounded. The protocol's bound
  /// is lease TTL + one poll-backoff cap + compute time; the ceiling adds
  /// generous CI slack on top.
  double max_drive_ms = 0;
};

struct WorkerProcs {
  std::vector<pid_t> pids;
};

/// Forks one worker per fault spec. The child arms its process-global
/// injector with its script, runs the worker loop against `dir`, and
/// _exits — exactly what a remote worker host would do, minus ssh. Fork
/// happens while the parent is single-threaded (no Engine exists yet), so
/// the children start clean.
WorkerProcs SpawnWorkers(const workload::Scenario& s, const Scenario& sc,
                         size_t k, size_t block, const std::string& dir,
                         int ttl_ms) {
  WorkerProcs procs;
  for (size_t w = 0; w < sc.worker_faults.size(); ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      if (!sc.worker_faults[w].empty()) {
        std::string error;
        if (!common::FaultInjector::Global().Arm(sc.worker_faults[w],
                                                 &error)) {
          std::fprintf(stderr, "worker %zu: bad fault spec: %s\n", w,
                       error.c_str());
          ::_exit(2);
        }
      }
      engine::EngineOptions options;
      options.threads = 2;
      options.block = block;
      engine::Engine worker(s.Context(), options);
      worker.SetLog(s.log);
      engine::MultiHostOptions mh;
      mh.ttl_ms = ttl_ms;
      mh.idle_timeout_ms = 30000;
      auto report = worker.RunShardWorker("token", k, dir, mh);
      ::_exit(report.ok() ? 0 : 3);
    }
    procs.pids.push_back(pid);
  }
  return procs;
}

/// Reaps every worker; returns how many died abnormally (fault-injected
/// _exit(137) or a parent SIGKILL) — the "injected kills" count.
int ReapWorkers(WorkerProcs& procs, bool kill_first) {
  int kills = 0;
  for (pid_t pid : procs.pids) {
    if (kill_first) ::kill(pid, SIGKILL);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
      std::perror("waitpid");
      std::exit(1);
    }
    if (WIFSIGNALED(status)) {
      ++kills;  // the parent's SIGKILL of a wedged worker
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 137) {
      ++kills;  // a scripted die
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "worker %d failed with exit %d\n", pid,
                   WEXITSTATUS(status));
      std::exit(1);
    }
  }
  return kills;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
  }
  const size_t n = smoke ? 24 : 48;
  const size_t block = 8;
  const size_t k = 4;  // shards; workers per scenario = 3
  const int ttl_ms = 500;  // lease holders renew every ttl_ms / 10

  std::printf("== multi-host fault tolerance: %zu shards, crash-injected "
              "workers ==\n\n", k);
  std::printf("log size n = %zu, lease ttl = %d ms, heartbeat = %d ms\n\n", n,
              ttl_ms, ttl_ms / 10);

  workload::Scenario s = bench::MakeShop(42, 60, n);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_bench_multihost")
          .string();

  // The ground truth, computed and the engine torn down *before* any fork
  // so children never inherit pool threads.
  distance::DistanceMatrix reference;
  {
    engine::EngineOptions options;
    options.threads = 2;
    options.block = block;
    engine::Engine direct(s.Context(), options);
    direct.SetLog(s.log);
    auto built = direct.BuildMatrix("token");
    DPE_BENCH_CHECK(built);
    reference = std::move(built).value();
  }

  // Scenarios with surviving workers assert recovery via kills +
  // bit-identity only: a survivor may *steal* the dead peer's expired
  // lease through its own TryAcquire before the coordinator's reclaim
  // sees it (that race is the work-stealing design, not a flake), so the
  // driver's lease_expiries counter is only deterministic when no worker
  // survives to win it.
  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", {"", "", ""}, false, 0, 0});
  // The lone worker dies with its lease held and no shard file: the
  // coordinator must detect the expiry itself and finish everything.
  scenarios.push_back({"die_before_export",
                       {"worker.export=die"},
                       false,
                       /*min_expiries=*/1,
                       /*min_kills=*/1,
                       /*max_drive_ms=*/ttl_ms + 2000 + 10000.0});
  if (!smoke) {
    // Dies inside the frame write: a torn .tmp is left behind, which no
    // reader may ever mistake for the shard.
    scenarios.push_back({"die_mid_frame_write",
                         {"store.frame.mid_write=die"},
                         false, 1, 1});
    // Alive but silent forever: lease held, heartbeat never starts. The
    // healthy peer or the coordinator takes the range over after the TTL;
    // the parent SIGKILLs the wedged process once the drive completes.
    scenarios.push_back({"wedge_without_heartbeat",
                         {"worker.acquired=wedge", "", ""},
                         /*kill_wedged_after_drive=*/true, 0, 1});
    // The double-acquire race: a capped wedge lets the original holder
    // resume *after* its range was stolen and recomputed; both holders'
    // exports are bit-identical, so the race is harmless by construction.
    // A second worker dies outright so the scenario also injects a kill.
    scenarios.push_back({"double_acquire_race",
                         {"worker.acquired=wedge:2500", "worker.export=die",
                          ""},
                         false, 0, 1});
    // Every worker dies on its first acquire: three corpse leases, nobody
    // left to steal them — the coordinator reclaims all three and degrades
    // to a single-process build.
    scenarios.push_back({"all_workers_die",
                         {"worker.export=die", "worker.export=die",
                          "worker.export=die"},
                         false, 3, 3});
  }

  bench::JsonReport report("multihost");
  std::printf("%-24s %9s %6s %9s %7s %8s %9s\n", "scenario", "drive ms",
              "kills", "expiries", "workers", "self", "discards");

  for (const Scenario& sc : scenarios) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    WorkerProcs procs = SpawnWorkers(s, sc, k, block, dir, ttl_ms);

    engine::EngineOptions options;
    options.threads = 2;
    options.block = block;
    engine::Engine coordinator(s.Context(), options);
    coordinator.SetLog(s.log);
    engine::MultiHostOptions mh;
    mh.ttl_ms = ttl_ms;
    mh.stall_timeout_ms = 60000;

    engine::DriveReport drive;
    const double drive_ms = bench::TimeMs([&] {
      auto r = coordinator.DriveShards("token", k, dir, mh);
      DPE_BENCH_CHECK(r);
      drive = std::move(r).value();
    });

    const int kills = ReapWorkers(procs, sc.kill_wedged_after_drive);

    // The only assertion that matters: faults cost latency, never bits.
    auto delta =
        distance::DistanceMatrix::MaxAbsDifference(drive.matrix, reference);
    DPE_BENCH_CHECK(delta);
    if (*delta != 0.0) {
      std::fprintf(stderr, "FATAL: scenario %s merged a non-identical "
                   "matrix (max delta %g)\n", sc.name.c_str(), *delta);
      return 1;
    }
    if (kills < static_cast<int>(sc.min_kills)) {
      std::fprintf(stderr, "FATAL: scenario %s expected >= %u kills, saw "
                   "%d\n", sc.name.c_str(), sc.min_kills, kills);
      return 1;
    }
    if (drive.lease_expiries < sc.min_expiries) {
      std::fprintf(stderr, "FATAL: scenario %s expected >= %u lease "
                   "expiries, saw %u\n", sc.name.c_str(), sc.min_expiries,
                   drive.lease_expiries);
      return 1;
    }
    if (sc.max_drive_ms > 0 && drive_ms > sc.max_drive_ms) {
      std::fprintf(stderr, "FATAL: scenario %s took %.1f ms, over the "
                   "recovery-latency ceiling of %.1f ms\n", sc.name.c_str(),
                   drive_ms, sc.max_drive_ms);
      return 1;
    }
    if (drive.merged_from_workers + drive.self_finished !=
        static_cast<uint32_t>(k)) {
      std::fprintf(stderr, "FATAL: scenario %s accounted for %u of %zu "
                   "shards\n", sc.name.c_str(),
                   drive.merged_from_workers + drive.self_finished, k);
      return 1;
    }

    std::printf("%-24s %9.1f %6d %9u %7u %8u %9u\n", sc.name.c_str(),
                drive_ms, kills, drive.lease_expiries,
                drive.merged_from_workers, drive.self_finished,
                drive.discards);
    report.Add("drive_ms", drive_ms, {{"scenario", sc.name}});
    report.Add("kills", kills, {{"scenario", sc.name}});
    report.Add("lease_expiries", drive.lease_expiries,
               {{"scenario", sc.name}});
    report.Add("merged_from_workers", drive.merged_from_workers,
               {{"scenario", sc.name}});
    report.Add("self_finished", drive.self_finished,
               {{"scenario", sc.name}});
    report.Add("discards", drive.discards, {{"scenario", sc.name}});
    report.Add("bit_identical", 1.0, {{"scenario", sc.name}});
  }

  std::filesystem::remove_all(dir);
  report.Write();
  std::printf("\nall scenarios merged bit-identical matrices\n");
  return 0;
}
