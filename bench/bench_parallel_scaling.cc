// Parallel-scaling bench: serial distance-matrix build vs the engine's
// blocked N-thread builder, on a large query log. Verifies on every
// configuration that the parallel matrix is bit-identical to the serial one
// (max |delta| must be exactly 0), then reports the speedup.
//
//   $ ./build/bench/bench_parallel_scaling            # n = 512
//   $ DPE_BENCH_N=128 ./build/bench/bench_parallel_scaling
//
// Speedup is bounded by the physical core count; the header line reports
// what the machine offers so a 1x result on a 1-core container reads as
// what it is.

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"

using namespace dpe;

int main() {
  size_t n = 512;
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }

  std::printf("== parallel scaling: serial vs engine matrix build ==\n\n");
  std::printf("log size n = %zu (%zu pairs), hardware threads = %u\n\n", n,
              n * (n - 1) / 2, std::thread::hardware_concurrency());

  workload::Scenario s = bench::MakeShop(42, 60, n);

  for (const char* name : {"token", "structure"}) {
    engine::MeasureRegistry registry = engine::MeasureRegistry::WithBuiltins();
    auto measure = registry.Create(name);
    if (!measure.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", measure.status().ToString().c_str());
      return 1;
    }
    distance::MeasureContext ctx = s.Context();

    // Reference for bit-identity: the serial, un-featurized path. The
    // timing baseline is the serial *featurized* builder (null pool), so
    // the thread sweep below isolates parallel scaling from the feature-
    // pipeline speedup (bench_distance_scaling measures that one).
    auto serial = distance::DistanceMatrix::Compute(s.log, **measure, ctx);
    DPE_BENCH_CHECK(serial);
    engine::MatrixBuilder serial_builder(nullptr);
    double serial_ms = bench::TimeMs([&] {
      DPE_BENCH_CHECK(serial_builder.Build(s.log, **measure, ctx));
    });

    std::printf("%-10s %8s %12s %9s %10s\n", name, "threads", "build ms",
                "speedup", "max|delta|");
    std::printf("%-10s %8s %12.1f %9s %10s\n", "", "serial", serial_ms, "1.00x",
                "-");

    for (size_t threads : {1u, 2u, 4u, 8u}) {
      common::ThreadPool pool(threads);
      engine::MatrixBuilder builder(&pool);
      auto parallel = builder.Build(s.log, **measure, ctx);
      DPE_BENCH_CHECK(parallel);
      auto delta = distance::DistanceMatrix::MaxAbsDifference(*serial, *parallel);
      DPE_BENCH_CHECK(delta);
      if (*delta != 0.0) {
        std::fprintf(stderr, "FATAL: parallel result differs from serial\n");
        return 1;
      }
      double ms = bench::TimeMs(
          [&] { DPE_BENCH_CHECK(builder.Build(s.log, **measure, ctx)); });
      std::printf("%-10s %8zu %12.1f %8.2fx %10.1e\n", "", threads, ms,
                  serial_ms / (ms > 0 ? ms : 1e-9), *delta);
    }
    std::printf("\n");
  }

  std::printf(
      "(every parallel build above was verified bit-identical to the serial "
      "reference\nbefore timing; speedup saturates at the physical core "
      "count.)\n");
  return 0;
}
