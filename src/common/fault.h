// Deterministic crash injection for the fault-tolerance test matrix.
//
// The multi-host shard driver (engine/driver.h) has to survive workers that
// die before exporting, die mid-frame-write, wedge without heartbeating, or
// race each other for a lease. Proving that takes *scripted* crashes at
// *named* points, not sleeps and hope — so the worker/store code declares
// fault points (`FaultInjector::Fire("worker.export")`) that are no-ops in
// production and become deaths, wedges, or delays when a spec arms them.
//
// Spec grammar (what Arm() parses):
//
//   spec    := entry (';' entry)*
//   entry   := point '=' action
//   action  := 'die' | 'wedge' [':' cap_ms] | 'sleep' ':' ms
//   point may carry '@' n to fire on the n-th hit only (1-based; default 1)
//
//   worker.export=die               die at the 1st export
//   worker.acquired=wedge           hold the lease, stop forever
//   worker.acquired=wedge:30000     ... for at most 30 s (CI cap)
//   worker.preacquire=sleep:200@2   stall the 2nd acquire attempt
//   store.frame.mid_write=die       die with a torn tmp on disk
//
// `die` is _exit(137) — no atexit handlers, no flushes: the closest a test
// can get to SIGKILL while still being scheduled from inside the victim.
// `wedge` spins in sleep without renewing anything, which is exactly the
// failure mode heartbeat timeouts exist for. Each armed entry fires at most
// once.
//
// Two scopes: the process-global injector, which nothing arms until a
// forked child calls Global().Arm(spec) (how bench_multihost and the
// compaction crash tests script a child process), and per-instance
// injectors handed around by value (how in-process tests crash a worker
// thread's export path without also crashing the coordinator that shares
// the process). Fire() on a null/unarmed injector is a branch and a load —
// cheap enough to leave in release builds.

#ifndef DPE_COMMON_FAULT_H_
#define DPE_COMMON_FAULT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dpe::common {

class FaultInjector {
 public:
  /// What an armed fault point does when hit.
  enum class Action : uint8_t {
    kDie,    ///< _exit(137), immediately
    kWedge,  ///< sleep-loop (optionally capped) without returning
    kSleep,  ///< delay delay_ms, then continue
  };

  struct Fault {
    std::string point;   ///< e.g. "worker.export"
    Action action = Action::kSleep;
    int delay_ms = 0;    ///< sleep duration / wedge cap (0 = forever)
    int at_hit = 1;      ///< fire on this hit count (1-based)
  };

  FaultInjector() = default;

  /// Parses a spec (see grammar above) and arms its entries, replacing any
  /// previous arming. Empty spec = disarm everything. Returns false (and
  /// arms nothing) on a malformed spec, with *error describing the defect.
  bool Arm(std::string_view spec, std::string* error = nullptr)
      EXCLUDES(mu_);

  /// Arms a single fault programmatically (tests).
  void Arm(Fault fault) EXCLUDES(mu_);

  /// Disarms everything.
  void Clear() EXCLUDES(mu_);

  /// Hit the named point: counts the hit and, if an entry is armed for this
  /// point and this hit number, performs its action (possibly never
  /// returning). The fast path — nothing armed at all — is one relaxed
  /// atomic-free check under no lock contention in practice.
  void Fire(std::string_view point) EXCLUDES(mu_);

  /// Total times `point` has been hit (armed or not). For harness asserts.
  uint64_t hits(std::string_view point) const EXCLUDES(mu_);

  /// True if any entry is armed.
  bool armed() const EXCLUDES(mu_);

  /// The process-global injector; unarmed until someone calls Arm() on it.
  /// A forked worker arms its own copy after fork, so each worker process
  /// runs its own script.
  static FaultInjector& Global();

 private:
  struct PointState {
    std::vector<Fault> entries;  ///< armed, not yet fired
    uint64_t hits = 0;
  };

  // Performs the armed action; called with mu_ dropped so a wedge/sleep
  // never blocks other threads' Fire() bookkeeping.
  void Perform(const Fault& fault) EXCLUDES(mu_);

  mutable Mutex mu_;
  std::unordered_map<std::string, PointState> points_ GUARDED_BY(mu_);
  bool any_armed_ GUARDED_BY(mu_) = false;
};

}  // namespace dpe::common

#endif  // DPE_COMMON_FAULT_H_
