// Shard-scaling bench: a k-shard matrix build round-tripped through on-disk
// shard files vs the single-process build. Each shard is computed by
// ShardWorker::Run — the unit every sharded build runs per row range — and
// the finished directory is merged by Engine::DriveShards. Verifies on
// every configuration that the merged matrix is bit-identical to the direct
// one, then reports per-shard compute cost (the distributed critical path
// is the slowest shard), export cost, and merge cost.
//
//   $ ./build/bench/bench_shard_scaling              # n = 384
//   $ DPE_BENCH_N=128 ./build/bench/bench_shard_scaling
//   $ ./build/bench/bench_shard_scaling --smoke      # tiny sizes (CI)
//
// On a 1-core container the shards run sequentially, so "sum of shards" ~
// "direct build"; the interesting columns are max-shard ms (the wall clock
// k hosts would see) and the merge overhead that buys the distribution.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "engine/engine.h"

using namespace dpe;

int main(int argc, char** argv) {
  size_t n = 384;
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
  }
  if (smoke) n = 48;
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }

  std::printf("== shard scaling: k-shard build + merge vs direct build ==\n\n");
  std::printf("log size n = %zu (%zu pairs), hardware threads = %u\n\n", n,
              n * (n - 1) / 2, std::thread::hardware_concurrency());

  workload::Scenario s = bench::MakeShop(42, 60, n);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_bench_shard_scaling")
          .string();

  bench::JsonReport report("shard_scaling");
  engine::EngineOptions options{.threads = 2, .block = smoke ? 8u : 32u};

  for (const char* name : {"token", "structure"}) {
    engine::Engine direct_engine(s.Context(), options);
    direct_engine.SetLog(s.log);
    auto direct = direct_engine.BuildMatrix(name);
    DPE_BENCH_CHECK(direct);
    double direct_ms = bench::TimeMs([&] {
      engine::Engine fresh(s.Context(), options);
      fresh.SetLog(s.log);
      DPE_BENCH_CHECK(fresh.BuildMatrix(name));
    });
    report.Add("direct_build_ms", direct_ms, {{"measure", name}});

    std::printf("%-10s %7s %13s %13s %10s %9s %10s\n", name, "shards",
                "max shard ms", "sum shard ms", "merge ms", "speedup",
                "max|delta|");
    std::printf("%-10s %7s %13s %13.1f %10s %9s %10s\n", "", "direct", "-",
                direct_ms, "-", "1.00x", "-");

    for (size_t k : {1u, 2u, 4u}) {
      std::filesystem::remove_all(dir);
      engine::Engine coordinator(s.Context(), options);
      coordinator.SetLog(s.log);
      auto plan = coordinator.PlanShards(k);
      DPE_BENCH_CHECK(plan);

      // Each shard stands in for its own process: a private store handle,
      // pool and measure instance, sharing only the directory.
      double max_shard_ms = 0.0, sum_shard_ms = 0.0;
      for (size_t shard = 0; shard < k; ++shard) {
        auto store = store::MatrixStore::Open(dir);
        DPE_BENCH_CHECK(store);
        auto measure = engine::MeasureRegistry::WithBuiltins().Create(name);
        if (!measure.ok()) {
          std::fprintf(stderr, "FATAL: %s\n",
                       measure.status().ToString().c_str());
          return 1;
        }
        common::ThreadPool pool(options.threads);
        engine::ShardWorker worker(&pool);
        double ms = bench::TimeMs([&] {
          DPE_BENCH_CHECK(worker.Run(name, s.log, **measure, s.Context(),
                                     *plan, shard, *store));
        });
        max_shard_ms = std::max(max_shard_ms, ms);
        sum_shard_ms += ms;
      }

      // The merge: a drive over a directory where every shard landed.
      auto merged = coordinator.DriveShards(name, k, dir);
      DPE_BENCH_CHECK(merged);
      if (merged->merged_from_workers != k) {
        std::fprintf(stderr, "FATAL: the merge recomputed %zu of %zu shards\n",
                     k - merged->merged_from_workers, k);
        return 1;
      }
      double merge_ms = bench::TimeMs([&] {
        engine::Engine remerge(s.Context(), options);
        remerge.SetLog(s.log);
        DPE_BENCH_CHECK(remerge.DriveShards(name, k, dir));
      });
      auto delta =
          distance::DistanceMatrix::MaxAbsDifference(*direct, merged->matrix);
      DPE_BENCH_CHECK(delta);
      if (*delta != 0.0) {
        std::fprintf(stderr,
                     "FATAL: merged shard build differs from direct build\n");
        return 1;
      }

      // Projected wall clock on k hosts: slowest shard + the merge.
      const double projected = max_shard_ms + merge_ms;
      std::printf("%-10s %7zu %13.1f %13.1f %10.1f %8.2fx %10.1e\n", "", k,
                  max_shard_ms, sum_shard_ms, merge_ms,
                  direct_ms / (projected > 0 ? projected : 1e-9), *delta);
      const std::string k_label = std::to_string(k);
      report.Add("max_shard_ms", max_shard_ms,
                 {{"measure", name}, {"shards", k_label}});
      report.Add("sum_shard_ms", sum_shard_ms,
                 {{"measure", name}, {"shards", k_label}});
      report.Add("merge_ms", merge_ms,
                 {{"measure", name}, {"shards", k_label}});
    }
    // The direct-build engine's own counters/stage timings ride along in
    // the artifact (last measure wins — the samples cover both).
    report.SetEngineStats(direct_engine.Stats().ToJson());
    std::printf("\n");
  }
  std::filesystem::remove_all(dir);

  std::printf(
      "(every merged matrix above was verified bit-identical to the direct "
      "build\nbefore timing; 'speedup' projects slowest-shard + merge "
      "against the direct build.)\n");
  report.Write();
  return 0;
}
