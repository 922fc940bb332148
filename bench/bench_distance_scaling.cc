// Experiment P3 — provider-side cost: full pairwise distance-matrix
// computation over the encrypted artifacts vs the owner-side plaintext
// computation, as the log grows. Also measures the feature-precompute
// pipeline: the featurized single-thread build (O(n·lex + n²·merge)) vs the
// legacy path, a serial loop over the per-pair reference
// measure.Distance(q1, q2) that re-lexes both queries (O(n²·lex)), verified
// bit-identical.
// Emits BENCH_distance_scaling.json.
//
//   $ ./build/bench/bench_distance_scaling           # full sweep, n up to 256
//   $ ./build/bench/bench_distance_scaling --smoke   # CI: tiny sizes only

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "engine/matrix_builder.h"

using namespace dpe;
using namespace dpe::core;

namespace {

/// The legacy matrix: every pair through the per-pair reference path.
Result<distance::DistanceMatrix> ReferenceMatrix(
    const std::vector<sql::SelectQuery>& log,
    const distance::QueryDistanceMeasure& measure,
    const distance::MeasureContext& ctx) {
  distance::DistanceMatrix m(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    for (size_t j = i + 1; j < log.size(); ++j) {
      DPE_ASSIGN_OR_RETURN(double d, measure.Distance(log[i], log[j], ctx));
      m.set(i, j, d);
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::JsonReport report("distance_scaling");

  std::printf("== P3a: feature pipeline, per-pair re-lexing vs precompute ==\n\n");
  std::printf("(serial 1-thread builds; legacy = per-pair reference\n"
              " measure.Distance(q1, q2), featurized = MatrixBuilder\n"
              " precompute + merge kernels)\n\n");
  std::printf("%-12s %6s %12s %14s %8s %10s\n", "measure", "n", "legacy ms",
              "featurized ms", "speedup", "max|delta|");
  {
    engine::MatrixBuilder serial_builder(nullptr);
    for (size_t n : smoke ? std::vector<size_t>{64}
                          : std::vector<size_t>{64, 128, 256}) {
      workload::Scenario s = bench::MakeShop(42, 60, n);
      distance::MeasureContext ctx = s.Context();
      for (MeasureKind kind :
           {MeasureKind::kToken, MeasureKind::kStructure}) {
        auto measure = MakeMeasure(kind);
        auto legacy = ReferenceMatrix(s.log, *measure, ctx);
        DPE_BENCH_CHECK(legacy);
        auto featurized = serial_builder.Build(s.log, *measure, ctx);
        DPE_BENCH_CHECK(featurized);
        auto delta =
            distance::DistanceMatrix::MaxAbsDifference(*legacy, *featurized);
        DPE_BENCH_CHECK(delta);
        if (*delta != 0.0) {
          std::fprintf(stderr,
                       "FATAL: featurized build differs from legacy path\n");
          return 1;
        }
        double legacy_ms = bench::TimeMs([&] {
          DPE_BENCH_CHECK(ReferenceMatrix(s.log, *measure, ctx));
        });
        double feat_ms = bench::TimeMs(
            [&] { DPE_BENCH_CHECK(serial_builder.Build(s.log, *measure, ctx)); });
        std::printf("%-12s %6zu %12.1f %14.1f %7.2fx %10.1e\n",
                    MeasureKindName(kind), n, legacy_ms, feat_ms,
                    legacy_ms / (feat_ms > 0 ? feat_ms : 1e-9), *delta);
        report.Add("legacy_ms", legacy_ms,
                   {{"measure", MeasureKindName(kind)},
                    {"n", std::to_string(n)}});
        report.Add("featurized_ms", feat_ms,
                   {{"measure", MeasureKindName(kind)},
                    {"n", std::to_string(n)}});
      }
    }
  }

  std::printf("\n== P3b: distance-matrix computation, plain vs encrypted ==\n\n");

  // Both sides go through the engine's blocked parallel builder with one
  // measure instance: a build prepares its own state and keeps none.
  common::ThreadPool pool;
  engine::MatrixBuilder builder(&pool);
  std::printf("(engine matrix builder, %zu threads)\n\n", pool.thread_count());
  std::printf("%-12s %6s %12s %12s %8s\n", "measure", "n", "plain ms",
              "encrypted ms", "ratio");

  crypto::KeyManager keys("bench-distance-scaling");
  for (size_t n : smoke ? std::vector<size_t>{25}
                        : std::vector<size_t>{25, 50, 100, 200}) {
    workload::Scenario s = bench::MakeShop(42, 60, n);
    for (MeasureKind kind : {MeasureKind::kToken, MeasureKind::kStructure,
                             MeasureKind::kResult, MeasureKind::kAccessArea}) {
      LogEncryptor enc = bench::MakeEncryptor(kind, keys, s);
      auto artifacts = enc.EncryptAll();
      DPE_BENCH_CHECK(artifacts);

      auto measure = MakeMeasure(kind);

      distance::MeasureContext plain_ctx;
      plain_ctx.database = &s.database;
      plain_ctx.domains = &s.domains;
      distance::MeasureContext enc_ctx;
      db::DomainRegistry empty;
      enc_ctx.domains = artifacts->encrypted_domains.has_value()
                            ? &*artifacts->encrypted_domains
                            : &empty;
      if (artifacts->encrypted_db.has_value()) {
        enc_ctx.database = &*artifacts->encrypted_db;
        enc_ctx.exec_options = &artifacts->provider_options;
      }

      double plain_ms = bench::TimeMs([&] {
        DPE_BENCH_CHECK(builder.Build(s.log, *measure, plain_ctx));
      });
      double enc_ms = bench::TimeMs([&] {
        DPE_BENCH_CHECK(
            builder.Build(artifacts->encrypted_log, *measure, enc_ctx));
      });
      std::printf("%-12s %6zu %12.1f %12.1f %8.2f\n", MeasureKindName(kind), n,
                  plain_ms, enc_ms, enc_ms / (plain_ms > 0 ? plain_ms : 1e-9));
      report.Add("plain_ms", plain_ms,
                 {{"measure", MeasureKindName(kind)}, {"n", std::to_string(n)}});
      report.Add("encrypted_ms", enc_ms,
                 {{"measure", MeasureKindName(kind)}, {"n", std::to_string(n)}});
    }
  }
  report.Write();
  std::printf(
      "\n(ratio ~ 1 means the provider pays no asymptotic penalty for "
      "working on ciphertexts;\nthe result measure's encrypted executor "
      "compares longer string keys, the access-area\nmeasure compares hex "
      "interval endpoints.)\n");
  return 0;
}
