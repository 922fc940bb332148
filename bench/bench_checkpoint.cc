// Checkpoint bench: cold-build vs restore-then-incremental, so the perf
// trajectory captures restart cost. A provider that mined N queries, saved
// a checkpoint and restarted with M new arrivals should pay only the new
// rows — O(M * (N + M)) distances instead of O((N + M)^2) — plus reading
// the snapshot's raw triangle rows and re-parsing the query log.
//
// Exits non-zero unless every restored matrix is bit-identical to its cold
// build and the journal after the restart holds exactly M row records, all
// at rows >= N (only the appended rows were computed).
//
//   $ ./build/bench/bench_checkpoint               # N = 256, M = 32
//   $ ./build/bench/bench_checkpoint --smoke       # CI leg: N = 64, M = 8
//   $ DPE_BENCH_N=96 DPE_BENCH_M=16 ./build/bench/bench_checkpoint

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "store/matrix_store.h"

using namespace dpe;

int main(int argc, char** argv) {
  size_t n = 256;
  size_t m = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      n = 64;
      m = 8;
    }
  }
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }
  if (const char* env = std::getenv("DPE_BENCH_M")) {
    m = static_cast<size_t>(std::atoll(env));
  }

  std::printf("== checkpoint: cold build vs restore + incremental ==\n\n");
  std::printf("initial log N = %zu, appended M = %zu (%zu of %zu pairs are "
              "new)\n\n",
              n, m, (n + m) * (n + m - 1) / 2 - n * (n - 1) / 2,
              (n + m) * (n + m - 1) / 2);

  workload::Scenario s = bench::MakeShop(42, 60, n + m);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_bench_checkpoint")
          .string();
  std::filesystem::remove_all(dir);

  std::printf("%-10s %14s %14s %12s %9s\n", "measure", "cold ms", "restore ms",
              "incr ms", "speedup");

  bench::JsonReport report("checkpoint");
  for (const char* name : {"token", "structure"}) {
    // Cold build over all N+M queries — what a restart without persistence
    // pays every time.
    engine::Engine cold(s.Context(), {.threads = 2});
    cold.SetLog(s.log);
    distance::DistanceMatrix cold_matrix;
    double cold_ms = bench::TimeMs([&] {
      auto built = cold.BuildMatrix(name);
      DPE_BENCH_CHECK(built);
      cold_matrix = std::move(built).value();
    });

    // Session 1: mine the first N queries and checkpoint.
    {
      engine::Engine session1(s.Context(), {.threads = 2});
      session1.SetLog({s.log.begin(), s.log.begin() + n});
      DPE_BENCH_CHECK(session1.BuildMatrix(name));
      auto saved = session1.SaveCheckpoint(dir);
      if (!saved.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", saved.ToString().c_str());
        return 1;
      }
    }

    // Session 2 ("after the restart"): restore, append M, rebuild.
    engine::Engine session2(s.Context(), {.threads = 2});
    double restore_ms = bench::TimeMs([&] {
      auto loaded = session2.LoadCheckpoint(dir);
      if (!loaded.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", loaded.ToString().c_str());
        std::exit(1);
      }
    });
    distance::DistanceMatrix incremental;
    double incr_ms = bench::TimeMs([&] {
      for (size_t i = n; i < n + m; ++i) {
        if (!session2.AddQuery(s.log[i]).ok()) std::exit(1);
      }
      auto built = session2.BuildMatrix(name);
      DPE_BENCH_CHECK(built);
      incremental = std::move(built).value();
    });

    auto delta =
        distance::DistanceMatrix::MaxAbsDifference(cold_matrix, incremental);
    DPE_BENCH_CHECK(delta);
    if (*delta != 0.0) {
      std::fprintf(stderr, "FATAL: restored matrix differs from cold build\n");
      return 1;
    }

    std::printf("%-10s %14.1f %14.1f %12.1f %8.2fx\n", name, cold_ms,
                restore_ms, incr_ms,
                cold_ms / std::max(restore_ms + incr_ms, 1e-9));
    report.Add("cold_build_ms", cold_ms, {{"measure", name}});
    report.Add("restore_ms", restore_ms, {{"measure", name}});
    report.Add("incremental_ms", incr_ms, {{"measure", name}});
    // The restored engine's stats carry the cache/journal counters the
    // restore path exercised (last measure wins).
    report.SetEngineStats(session2.Stats().ToJson());
  }

  // What the journal recorded for the last measure: only the new rows.
  auto store = store::MatrixStore::Open(dir);
  DPE_BENCH_CHECK(store);
  auto journal = store->ReadJournal();
  DPE_BENCH_CHECK(journal);
  size_t rows = 0, min_row = SIZE_MAX;
  for (const auto& record : *journal) {
    if (record.kind != store::JournalRecord::Kind::kRowComputed) continue;
    ++rows;
    min_row = std::min<size_t>(min_row, record.row);
  }
  if (rows != m || min_row < n) {
    std::fprintf(stderr,
                 "FATAL: journal after restart holds %zu row records (lowest "
                 "row %zu); want exactly %zu, all >= %zu\n",
                 rows, min_row, m, n);
    return 1;
  }
  std::printf("\n(journal after restart: %zu row records, lowest row %zu — "
              "only appended\nrows were recomputed; every restored matrix was "
              "verified bit-identical to\nits cold build.)\n",
              rows, min_row);
  std::filesystem::remove_all(dir);
  report.Write();
  return 0;
}
