// Per-kernel throughput of the distance-layer kernels: the sorted-u32
// intersection on every runnable backend, and Myers' edit distance over
// u32 ids and bytes (portable, so timed once).
//
// Before timing a kernel, the bench checks it against its oracle on the
// exact workload it is about to time: std::set_intersection for the
// intersection, the Levenshtein measure's two-row DP
// (distance::EditDistance) for edit distance. A mismatch aborts the run —
// a fast wrong kernel must never produce a number. It reports ns/op, and
// for the intersection the speedup over scalar. Results land in
// BENCH_simd_kernels.json at the repo root for CI's perf-trajectory
// archive.
//
//   ./bench_simd_kernels           # full sizes
//   ./bench_simd_kernels --smoke   # tiny sizes for CI (still verifies)
//
// On hardware without AVX2 (or a -DDPE_DISABLE_SIMD build) only the scalar
// backend runs: the bench then degenerates to an oracle check plus a
// scalar baseline, which is exactly what a 1-CPU/no-SIMD CI leg is for.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "distance/levenshtein_distance.h"
#include "engine/engine.h"

namespace {

using dpe::common::simd::BackendName;
using dpe::common::simd::EditDistanceBytes;
using dpe::common::simd::EditDistanceU32;
using dpe::common::simd::KernelBackend;
using dpe::common::simd::KernelsFor;
using dpe::common::simd::KernelTable;
using dpe::common::simd::RunnableBackends;
using dpe::distance::EditDistance;

std::vector<uint32_t> SortedUnique(std::mt19937& rng, size_t n,
                                   uint32_t max_value) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> value(0, max_value);
  while (s.size() < n) s.insert(value(rng));
  return {s.begin(), s.end()};
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

[[noreturn]] void OracleFailure(const char* kernel, const char* backend) {
  std::fprintf(stderr,
               "FATAL: %s kernel (%s) deviates from its oracle — "
               "refusing to time a wrong kernel\n",
               kernel, backend);
  std::exit(1);
}

/// Best-of-`reps` ns per call of `op(p)` over p in [0, ops).
template <typename Op>
double BestNsPerOp(size_t ops, int reps, Op op) {
  volatile size_t sink = 0;
  double best_ms = 1e100;
  for (int r = 0; r < reps; ++r) {
    best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
      size_t acc = 0;
      for (size_t p = 0; p < ops; ++p) acc += op(p);
      sink = acc;
    }));
  }
  (void)sink;
  return best_ms * 1e6 / static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t pairs = smoke ? 200 : 20000;
  const size_t set_len = smoke ? 48 : 96;
  const size_t seq_len = smoke ? 40 : 72;
  const size_t str_len = smoke ? 120 : 240;
  const int reps = smoke ? 1 : 5;

  std::mt19937 rng(20260729);
  dpe::bench::JsonReport report("simd_kernels");

  // Workloads, generated once and shared by every backend so the numbers
  // are comparable (and the oracle check runs on the timed inputs).
  std::vector<std::vector<uint32_t>> sets(2 * pairs);
  for (auto& s : sets) s = SortedUnique(rng, set_len, 4 * set_len);
  std::vector<std::vector<uint32_t>> skew_small(pairs), skew_big(8);
  for (auto& s : skew_big) s = SortedUnique(rng, 64 * set_len, 1 << 20);
  for (auto& s : skew_small) s = SortedUnique(rng, 8, 1 << 20);
  std::vector<std::vector<uint32_t>> seqs(2 * pairs);
  {
    std::uniform_int_distribution<uint32_t> sym(0, 255);
    for (auto& s : seqs) {
      s.resize(seq_len);
      for (uint32_t& v : s) v = sym(rng);
    }
  }
  std::vector<std::string> strs(2 * pairs);
  {
    std::uniform_int_distribution<int> ch('a', 'z');
    for (auto& s : strs) {
      s.resize(str_len);
      for (char& c : s) c = static_cast<char>(ch(rng));
    }
  }

  std::printf("SIMD kernel bench: %zu pairs/op-batch%s\n", pairs,
              smoke ? " (smoke)" : "");
  std::printf("%-14s %-8s %12s %10s\n", "kernel", "backend", "ns/op",
              "vs scalar");

  // -- intersection, per backend: balanced sizes, then skewed (galloping) --
  // `operands(p)` returns pair p's two sets.
  auto time_intersect = [&](const char* kernel, auto operands) {
    double scalar_ns = 0.0;
    for (KernelBackend backend : RunnableBackends()) {
      const KernelTable& k = KernelsFor(backend);
      auto op = [&](size_t p) {
        const auto& [a, b] = operands(p);
        return k.intersect(a.data(), a.size(), b.data(), b.size());
      };
      for (size_t p = 0; p < pairs; ++p) {
        const auto& [a, b] = operands(p);
        if (op(p) != ReferenceIntersect(a, b)) {
          OracleFailure(kernel, BackendName(backend));
        }
      }
      const double ns = BestNsPerOp(pairs, reps, op);
      if (backend == KernelBackend::kScalar) scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", kernel, BackendName(backend),
                  ns, scalar_ns / ns);
      report.Add("ns_per_op", ns,
                 {{"kernel", kernel}, {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", scalar_ns / ns,
                 {{"kernel", kernel}, {"backend", BackendName(backend)}});
    }
  };
  time_intersect("intersect", [&](size_t p) {
    return std::tie(sets[2 * p], sets[2 * p + 1]);
  });
  time_intersect("intersect-skew", [&](size_t p) {
    return std::tie(skew_small[p], skew_big[p % skew_big.size()]);
  });

  // -- edit distance: portable, so one row per kernel --
  auto time_edit = [&](const char* kernel, size_t edit_pairs, auto op,
                       auto oracle) {
    for (size_t p = 0; p < edit_pairs; ++p) {
      if (op(p) != oracle(p)) OracleFailure(kernel, "portable");
    }
    const double ns = BestNsPerOp(edit_pairs, reps, op);
    std::printf("%-14s %-8s %12.1f %10s\n", kernel, "portable", ns, "-");
    report.Add("ns_per_op", ns, {{"kernel", kernel}});
  };
  time_edit(
      "edit-u32", smoke ? pairs : pairs / 20,
      [&](size_t p) {
        const auto& a = seqs[2 * p];
        const auto& b = seqs[2 * p + 1];
        return EditDistanceU32(a.data(), a.size(), b.data(), b.size());
      },
      [&](size_t p) { return EditDistance(seqs[2 * p], seqs[2 * p + 1]); });
  time_edit(
      "edit-bytes", smoke ? pairs : pairs / 40,
      [&](size_t p) {
        const auto& a = strs[2 * p];
        const auto& b = strs[2 * p + 1];
        return EditDistanceBytes(a.data(), a.size(), b.data(), b.size());
      },
      [&](size_t p) { return EditDistance(strs[2 * p], strs[2 * p + 1]); });

  std::printf("every kernel matched its oracle before timing\n");
  report.Add("backends", static_cast<double>(RunnableBackends().size()));

  // One small end-to-end matrix build through the resolved-best backend, so
  // the artifact carries the engine's own StatsReport (distance-call
  // counters, stage timings, api latency histograms) next to the kernel
  // numbers — the observability layer's view of the same dispatch.
  {
    const size_t log_size = smoke ? 32 : 96;
    dpe::workload::Scenario s = dpe::bench::MakeShop(7, 40, log_size);
    dpe::obs::MetricsRegistry registry;
    dpe::engine::Engine engine(s.Context(),
                               {.threads = 2, .metrics = &registry});
    engine.SetLog(s.log);
    dpe::engine::BuildReport build;
    DPE_BENCH_CHECK(engine.BuildMatrix("token", &build));
    report.Add("engine_build_ms", build.wall_ms,
               {{"measure", "token"},
                {"n", std::to_string(log_size)},
                {"backend", build.backend}});
    report.SetEngineStats(engine.Stats().ToJson());
  }

  if (!report.Write()) return 1;
  return 0;
}
