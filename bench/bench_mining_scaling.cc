// Mining-kernel scaling: serial vs N-thread k-medoids / DBSCAN /
// DB(p,D) outliers over one precomputed distance matrix, plus one serial
// complete-link row (CompleteLink ignores the pool). Every parallel run is
// verified bit-identical to the serial reference (labels, medoids,
// deviations, outlier sets) before it is timed.
// Emits BENCH_mining_scaling.json for the cross-PR perf trajectory.
//
//   $ ./build/bench/bench_mining_scaling             # n = 192
//   $ DPE_BENCH_N=96 ./build/bench/bench_mining_scaling
//   $ ./build/bench/bench_mining_scaling --smoke     # CI: tiny n, 1 rep
//
// Speedup is bounded by the physical core count; the header line reports
// what the machine offers so a 1x result on a 1-core container reads as
// what it is.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/outlier.h"

using namespace dpe;

namespace {

bool SameLabels(const mining::Labels& a, const mining::Labels& b) {
  return a == b;
}

int Fatal(const char* what) {
  std::fprintf(stderr, "FATAL: parallel %s differs from serial reference\n",
               what);
  return 1;
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

  std::printf("== mining scaling: serial vs N-thread kernels ==\n\n");
  std::printf("log size n = %zu, hardware threads = %u%s\n\n", n,
              std::thread::hardware_concurrency(), smoke ? " (smoke)" : "");

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

  mining::KMedoidsOptions kopt;
  kopt.k = 4;
  mining::DbscanOptions dopt;
  dopt.epsilon = 0.35;
  dopt.min_points = 3;
  mining::OutlierOptions oopt;
  oopt.p = 0.8;
  oopt.d = 0.6;

  const auto serial_km = mining::KMedoids(m, kopt);
  const auto serial_db = mining::Dbscan(m, dopt);
  const auto serial_out = mining::DistanceBasedOutliers(m, oopt);
  DPE_BENCH_CHECK(serial_km);
  DPE_BENCH_CHECK(serial_db);
  DPE_BENCH_CHECK(serial_out);

  struct Row {
    const char* miner;
    double serial_ms;
  };
  // The pooled miners first; hierarchical, last, has only its serial row.
  Row rows[4] = {{"kmedoids", 0.0}, {"dbscan", 0.0}, {"outlier", 0.0},
                 {"hierarchical", 0.0}};
  rows[0].serial_ms = bench::TimeMs([&] { DPE_BENCH_CHECK(mining::KMedoids(m, kopt)); });
  rows[1].serial_ms = bench::TimeMs([&] { DPE_BENCH_CHECK(mining::Dbscan(m, dopt)); });
  rows[2].serial_ms =
      bench::TimeMs([&] { DPE_BENCH_CHECK(mining::DistanceBasedOutliers(m, oopt)); });
  rows[3].serial_ms = bench::TimeMs([&] { DPE_BENCH_CHECK(mining::CompleteLink(m)); });

  std::printf("%-14s %8s %12s %9s %10s\n", "miner", "threads", "run ms",
              "speedup", "identical");
  for (const Row& row : rows) {
    std::printf("%-14s %8s %12.2f %9s %10s\n", row.miner, "serial",
                row.serial_ms, "1.00x", "-");
    report.Add("run_ms", row.serial_ms,
               {{"miner", row.miner}, {"threads", "serial"}});
  }
  std::printf("\n");

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    common::ThreadPool pool(threads);
    const std::string threads_str = std::to_string(threads);

    mining::KMedoidsOptions kp = kopt;
    kp.pool = &pool;
    auto km = mining::KMedoids(m, kp);
    DPE_BENCH_CHECK(km);
    if (!SameLabels(km->labels, serial_km->labels) ||
        km->medoids != serial_km->medoids ||
        km->total_deviation != serial_km->total_deviation ||
        km->iterations != serial_km->iterations) {
      return Fatal("kmedoids");
    }
    double km_ms = bench::TimeMs([&] { DPE_BENCH_CHECK(mining::KMedoids(m, kp)); });

    mining::DbscanOptions dp = dopt;
    dp.pool = &pool;
    auto db = mining::Dbscan(m, dp);
    DPE_BENCH_CHECK(db);
    if (!SameLabels(db->labels, serial_db->labels) ||
        db->cluster_count != serial_db->cluster_count) {
      return Fatal("dbscan");
    }
    double db_ms = bench::TimeMs([&] { DPE_BENCH_CHECK(mining::Dbscan(m, dp)); });

    mining::OutlierOptions op = oopt;
    op.pool = &pool;
    auto out = mining::DistanceBasedOutliers(m, op);
    DPE_BENCH_CHECK(out);
    if (out->is_outlier != serial_out->is_outlier ||
        out->outliers != serial_out->outliers) {
      return Fatal("outlier");
    }
    double out_ms = bench::TimeMs(
        [&] { DPE_BENCH_CHECK(mining::DistanceBasedOutliers(m, op)); });

    const double ms[3] = {km_ms, db_ms, out_ms};
    for (size_t r = 0; r < 3; ++r) {
      std::printf("%-14s %8zu %12.2f %8.2fx %10s\n", rows[r].miner, threads,
                  ms[r], rows[r].serial_ms / (ms[r] > 0 ? ms[r] : 1e-9),
                  "yes");
      report.Add("run_ms", ms[r],
                 {{"miner", rows[r].miner}, {"threads", threads_str}});
    }
    std::printf("\n");
  }

  report.Write();
  std::printf(
      "(every parallel run above was verified bit-identical to the serial "
      "reference\nbefore timing; speedup saturates at the physical core "
      "count. hierarchical\nruns serially whatever the pool, so it has only "
      "its serial row.)\n");
  return 0;
}
