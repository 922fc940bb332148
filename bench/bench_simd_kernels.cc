// Per-kernel throughput of every runnable SIMD backend against scalar —
// the microbench behind the distance-layer speedup claims.
//
// For each kernel (sorted-u32 intersection, Myers/DP edit distance over u32
// ids and bytes, argmin) and each backend RunnableBackends() reports, the
// bench first PROVES bit-identity against the scalar table on the exact
// workload it is about to time (a mismatch aborts the run — a fast wrong
// kernel must never produce a number), then reports ns/op and the speedup
// over scalar. Results land in BENCH_simd_kernels.json at the
// repo root for CI's perf-trajectory archive.
//
//   ./bench_simd_kernels           # full sizes
//   ./bench_simd_kernels --smoke   # tiny sizes for CI (still verifies)
//
// On hardware without AVX2/SSE4.2 (or a -DDPE_DISABLE_SIMD build) only the
// scalar backend runs: the bench then degenerates to a bit-identity check
// plus a scalar baseline, which is exactly what a 1-CPU/no-SIMD CI leg is
// for.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "engine/engine.h"

namespace {

using dpe::common::simd::ArgMinResult;
using dpe::common::simd::BackendName;
using dpe::common::simd::KernelBackend;
using dpe::common::simd::KernelsFor;
using dpe::common::simd::KernelTable;
using dpe::common::simd::RunnableBackends;

std::vector<uint32_t> SortedUnique(std::mt19937& rng, size_t n,
                                   uint32_t max_value) {
  std::set<uint32_t> s;
  std::uniform_int_distribution<uint32_t> value(0, max_value);
  while (s.size() < n) s.insert(value(rng));
  return {s.begin(), s.end()};
}

double NsPerOp(double ms, size_t ops) { return ms * 1e6 / static_cast<double>(ops); }

[[noreturn]] void IdentityFailure(const char* kernel, KernelBackend backend) {
  std::fprintf(stderr,
               "FATAL: %s kernel on backend %s deviates from scalar — "
               "refusing to time a wrong kernel\n",
               kernel, BackendName(backend));
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const size_t pairs = smoke ? 200 : 20000;
  const size_t set_len = smoke ? 48 : 96;
  const size_t seq_len = smoke ? 40 : 72;
  const size_t str_len = smoke ? 120 : 240;
  const size_t row_len = smoke ? 256 : 4096;
  const int reps = smoke ? 1 : 5;

  std::mt19937 rng(20260729);
  dpe::bench::JsonReport report("simd_kernels");
  const KernelTable& scalar = KernelsFor(KernelBackend::kScalar);

  // Workloads, generated once and shared by every backend so the numbers
  // are comparable (and the identity check runs on the timed inputs).
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
  std::vector<double> row(row_len);
  {
    std::uniform_real_distribution<double> value(0.0, 1.0);
    for (double& d : row) d = value(rng);
  }

  std::printf("SIMD kernel bench: %zu pairs/op-batch%s\n", pairs,
              smoke ? " (smoke)" : "");
  std::printf("%-14s %-8s %12s %10s\n", "kernel", "backend", "ns/op",
              "vs scalar");

  struct Timed {
    const char* kernel;
    double scalar_ns = 0.0;
  };
  Timed rows[5] = {{"intersect"}, {"intersect-skew"}, {"edit-u32"},
                   {"edit-bytes"}, {"argmin"}};

  for (KernelBackend backend : RunnableBackends()) {
    const KernelTable& k = KernelsFor(backend);

    // -- intersect (balanced sizes) --
    {
      for (size_t p = 0; p < pairs; ++p) {
        const auto& a = sets[2 * p];
        const auto& b = sets[2 * p + 1];
        if (k.intersect(a.data(), a.size(), b.data(), b.size()) !=
            scalar.intersect(a.data(), a.size(), b.data(), b.size())) {
          IdentityFailure("intersect", backend);
        }
      }
      volatile size_t sink = 0;
      double best_ms = 1e100;
      for (int r = 0; r < reps; ++r) {
        best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
          size_t acc = 0;
          for (size_t p = 0; p < pairs; ++p) {
            const auto& a = sets[2 * p];
            const auto& b = sets[2 * p + 1];
            acc += k.intersect(a.data(), a.size(), b.data(), b.size());
          }
          sink = acc;
        }));
      }
      (void)sink;
      const double ns = NsPerOp(best_ms, pairs);
      if (backend == KernelBackend::kScalar) rows[0].scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", "intersect",
                  BackendName(backend), ns, rows[0].scalar_ns / ns);
      report.Add("ns_per_op", ns,
                 {{"kernel", "intersect"}, {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", rows[0].scalar_ns / ns,
                 {{"kernel", "intersect"}, {"backend", BackendName(backend)}});
    }

    // -- intersect (skewed sizes: the galloping path) --
    {
      for (size_t p = 0; p < pairs; ++p) {
        const auto& a = skew_small[p];
        const auto& b = skew_big[p % skew_big.size()];
        if (k.intersect(a.data(), a.size(), b.data(), b.size()) !=
            scalar.intersect(a.data(), a.size(), b.data(), b.size())) {
          IdentityFailure("intersect-skew", backend);
        }
      }
      volatile size_t sink = 0;
      double best_ms = 1e100;
      for (int r = 0; r < reps; ++r) {
        best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
          size_t acc = 0;
          for (size_t p = 0; p < pairs; ++p) {
            const auto& a = skew_small[p];
            const auto& b = skew_big[p % skew_big.size()];
            acc += k.intersect(a.data(), a.size(), b.data(), b.size());
          }
          sink = acc;
        }));
      }
      (void)sink;
      const double ns = NsPerOp(best_ms, pairs);
      if (backend == KernelBackend::kScalar) rows[1].scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", "intersect-skew",
                  BackendName(backend), ns, rows[1].scalar_ns / ns);
      report.Add("ns_per_op", ns, {{"kernel", "intersect-skew"},
                                   {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", rows[1].scalar_ns / ns,
                 {{"kernel", "intersect-skew"},
                  {"backend", BackendName(backend)}});
    }

    // -- edit distance over u32 id sequences --
    {
      const size_t edit_pairs = smoke ? pairs : pairs / 20;
      for (size_t p = 0; p < edit_pairs; ++p) {
        const auto& a = seqs[2 * p];
        const auto& b = seqs[2 * p + 1];
        if (k.edit_u32(a.data(), a.size(), b.data(), b.size()) !=
            scalar.edit_u32(a.data(), a.size(), b.data(), b.size())) {
          IdentityFailure("edit-u32", backend);
        }
      }
      volatile size_t sink = 0;
      double best_ms = 1e100;
      for (int r = 0; r < reps; ++r) {
        best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
          size_t acc = 0;
          for (size_t p = 0; p < edit_pairs; ++p) {
            const auto& a = seqs[2 * p];
            const auto& b = seqs[2 * p + 1];
            acc += k.edit_u32(a.data(), a.size(), b.data(), b.size());
          }
          sink = acc;
        }));
      }
      (void)sink;
      const double ns = NsPerOp(best_ms, edit_pairs);
      if (backend == KernelBackend::kScalar) rows[2].scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", "edit-u32",
                  BackendName(backend), ns, rows[2].scalar_ns / ns);
      report.Add("ns_per_op", ns,
                 {{"kernel", "edit-u32"}, {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", rows[2].scalar_ns / ns,
                 {{"kernel", "edit-u32"}, {"backend", BackendName(backend)}});
    }

    // -- edit distance over byte strings --
    {
      const size_t edit_pairs = smoke ? pairs : pairs / 40;
      for (size_t p = 0; p < edit_pairs; ++p) {
        const auto& a = strs[2 * p];
        const auto& b = strs[2 * p + 1];
        if (k.edit_bytes(a.data(), a.size(), b.data(), b.size()) !=
            scalar.edit_bytes(a.data(), a.size(), b.data(), b.size())) {
          IdentityFailure("edit-bytes", backend);
        }
      }
      volatile size_t sink = 0;
      double best_ms = 1e100;
      for (int r = 0; r < reps; ++r) {
        best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
          size_t acc = 0;
          for (size_t p = 0; p < edit_pairs; ++p) {
            const auto& a = strs[2 * p];
            const auto& b = strs[2 * p + 1];
            acc += k.edit_bytes(a.data(), a.size(), b.data(), b.size());
          }
          sink = acc;
        }));
      }
      (void)sink;
      const double ns = NsPerOp(best_ms, edit_pairs);
      if (backend == KernelBackend::kScalar) rows[3].scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", "edit-bytes",
                  BackendName(backend), ns, rows[3].scalar_ns / ns);
      report.Add("ns_per_op", ns,
                 {{"kernel", "edit-bytes"}, {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", rows[3].scalar_ns / ns,
                 {{"kernel", "edit-bytes"}, {"backend", BackendName(backend)}});
    }

    // -- argmin over a matrix row --
    {
      const ArgMinResult expect_min = scalar.argmin(row.data(), row.size());
      const ArgMinResult got_min = k.argmin(row.data(), row.size());
      if (got_min.value != expect_min.value ||
          got_min.index != expect_min.index) {
        IdentityFailure("argmin", backend);
      }
      const size_t iters = smoke ? 200 : 20000;
      volatile double sink = 0.0;
      double best_ms = 1e100;
      for (int r = 0; r < reps; ++r) {
        best_ms = std::min(best_ms, dpe::bench::TimeMs([&] {
          double acc = 0.0;
          for (size_t it = 0; it < iters; ++it) {
            acc += k.argmin(row.data(), row.size()).value;
          }
          sink = acc;
        }));
      }
      (void)sink;
      const double ns = NsPerOp(best_ms, iters);
      if (backend == KernelBackend::kScalar) rows[4].scalar_ns = ns;
      std::printf("%-14s %-8s %12.1f %9.2fx\n", "argmin",
                  BackendName(backend), ns, rows[4].scalar_ns / ns);
      report.Add("ns_per_op", ns,
                 {{"kernel", "argmin"}, {"backend", BackendName(backend)}});
      report.Add("speedup_vs_scalar", rows[4].scalar_ns / ns,
                 {{"kernel", "argmin"}, {"backend", BackendName(backend)}});
    }
  }

  std::printf("bit-identity verified for every backend before timing\n");
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
