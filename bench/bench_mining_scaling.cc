// Mining-kernel scaling: serial vs N-thread k-medoids and DB(p,D) outliers
// over one precomputed distance matrix, plus one serial row each for DBSCAN
// and complete link (both run serially whatever the pool). Every pooled run
// is verified bit-identical to the serial reference (labels, medoids,
// deviations, outlier sets) before it is timed.
//
// Each row is the median of 25 timed runs (3 with --smoke). The runs
// alternate: every rep times every row once, starting one row later than
// the rep before, so drift on a shared host lands on all rows alike
// instead of on whichever configuration ran last.
// Emits BENCH_mining_scaling.json for the cross-PR perf trajectory.
//
//   $ ./build/bench/bench_mining_scaling             # n = 192
//   $ DPE_BENCH_N=544 ./build/bench/bench_mining_scaling
//   $ ./build/bench/bench_mining_scaling --smoke     # CI: tiny n, 3 reps
//
// Speedup is bounded by the physical core count; the header line reports
// what the machine offers so a 1x result on a 1-core container reads as
// what it is.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/outlier.h"

using namespace dpe;

namespace {

int Fatal(const char* what) {
  std::fprintf(stderr, "FATAL: parallel %s differs from serial reference\n",
               what);
  return 1;
}

/// One timed configuration: a miner on the pool of `threads` workers
/// ("serial" = no pool).
struct Row {
  const char* miner;
  std::string threads;
  std::function<void()> run;
  std::vector<double> ms;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t n = smoke ? 48 : 192;
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }
  const size_t reps = smoke ? 3 : 25;

  std::printf("== mining scaling: serial vs N-thread kernels ==\n\n");
  std::printf("log size n = %zu, hardware threads = %u, median of %zu "
              "alternating reps%s\n\n",
              n, std::thread::hardware_concurrency(), reps,
              smoke ? " (smoke)" : "");

  workload::Scenario s = bench::MakeShop(42, 60, n);
  engine::MeasureRegistry registry = engine::MeasureRegistry::WithBuiltins();
  auto measure = registry.Create("token");
  if (!measure.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", measure.status().ToString().c_str());
    return 1;
  }
  distance::MeasureContext ctx = s.Context();
  common::ThreadPool build_pool;
  engine::MatrixBuilder builder(&build_pool);
  auto matrix = builder.Build(s.log, **measure, ctx);
  DPE_BENCH_CHECK(matrix);
  const distance::DistanceMatrix& m = *matrix;

  bench::JsonReport report("mining_scaling");
  report.Add("n", static_cast<double>(n));
  report.Add("reps", static_cast<double>(reps));

  mining::KMedoidsOptions kopt;
  kopt.k = 4;
  mining::DbscanOptions dopt;
  dopt.epsilon = 0.35;
  dopt.min_points = 3;
  mining::OutlierOptions oopt;
  oopt.p = 0.8;
  oopt.d = 0.6;

  const auto serial_km = mining::KMedoids(m, kopt);
  const auto serial_out = mining::DistanceBasedOutliers(m, oopt);
  DPE_BENCH_CHECK(serial_km);
  DPE_BENCH_CHECK(serial_out);

  // Rows are grouped by miner; each miner's serial row comes first and is
  // what its speedups divide.
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  std::vector<Row> rows;
  rows.push_back({"kmedoids", "serial",
                  [&] { DPE_BENCH_CHECK(mining::KMedoids(m, kopt)); }, {}});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    pools.push_back(std::make_unique<common::ThreadPool>(threads));
    mining::KMedoidsOptions kp = kopt;
    kp.pool = pools.back().get();
    auto km = mining::KMedoids(m, kp);
    DPE_BENCH_CHECK(km);
    if (km->labels != serial_km->labels ||
        km->medoids != serial_km->medoids ||
        km->total_deviation != serial_km->total_deviation ||
        km->iterations != serial_km->iterations) {
      return Fatal("kmedoids");
    }
    rows.push_back({"kmedoids", std::to_string(threads),
                    [&m, kp] { DPE_BENCH_CHECK(mining::KMedoids(m, kp)); },
                    {}});
  }
  rows.push_back({"outlier", "serial",
                  [&] {
                    DPE_BENCH_CHECK(mining::DistanceBasedOutliers(m, oopt));
                  },
                  {}});
  for (size_t p = 0; p < pools.size(); ++p) {
    mining::OutlierOptions op = oopt;
    op.pool = pools[p].get();
    auto out = mining::DistanceBasedOutliers(m, op);
    DPE_BENCH_CHECK(out);
    if (out->is_outlier != serial_out->is_outlier ||
        out->outliers != serial_out->outliers) {
      return Fatal("outlier");
    }
    rows.push_back({"outlier", std::to_string(pools[p]->thread_count()),
                    [&m, op] {
                      DPE_BENCH_CHECK(mining::DistanceBasedOutliers(m, op));
                    },
                    {}});
  }
  rows.push_back({"dbscan", "serial",
                  [&] { DPE_BENCH_CHECK(mining::Dbscan(m, dopt)); }, {}});
  rows.push_back({"hierarchical", "serial",
                  [&] { DPE_BENCH_CHECK(mining::CompleteLink(m)); }, {}});

  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < rows.size(); ++i) {
      Row& row = rows[(rep + i) % rows.size()];
      row.ms.push_back(bench::TimeMs(row.run));
    }
  }

  std::printf("%-14s %8s %12s %9s %10s\n", "miner", "threads", "median ms",
              "speedup", "identical");
  double serial_ms = 0.0;
  for (const Row& row : rows) {
    const double ms = Median(row.ms);
    if (row.threads == "serial") {
      serial_ms = ms;
      std::printf("%-14s %8s %12.3f %9s %10s\n", row.miner, "serial", ms,
                  "1.00x", "-");
    } else {
      std::printf("%-14s %8s %12.3f %8.2fx %10s\n", row.miner,
                  row.threads.c_str(), ms, serial_ms / (ms > 0 ? ms : 1e-9),
                  "yes");
    }
    report.Add("run_ms", ms, {{"miner", row.miner}, {"threads", row.threads}});
  }

  report.Write();
  std::printf(
      "\n(every pooled run above was verified bit-identical to the serial "
      "reference\nbefore timing; speedup saturates at the physical core "
      "count. DBSCAN and\ncomplete link run serially whatever the pool, so "
      "each has only its serial row.)\n");
  return 0;
}
