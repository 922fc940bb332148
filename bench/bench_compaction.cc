// Compaction bench: restart cost with a long journal vs after folding it
// into the next snapshot generation. A provider that appends for days
// without compacting pays a journal replay proportional to ALL work since
// the last full checkpoint on every restart; with online compaction the
// replay is O(journal tail since the last fold). The bench measures both
// restarts over the same state, verifies them bit-identical, and records
// the journal/snapshot byte footprints before and after the fold. Snapshot
// chunks and journal row records carry the same raw triangle rows, so a
// fold only sheds per-record headers: the bench exits non-zero if the
// folded checkpoint (snapshot + journal) is larger on disk than the
// long-journal one.
//
//   $ ./build/bench/bench_compaction            # N = 192, M = 64
//   $ ./build/bench/bench_compaction --smoke    # CI leg: N = 48, M = 16
//   $ DPE_BENCH_N=96 DPE_BENCH_M=32 ./build/bench/bench_compaction

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench/bench_util.h"
#include "engine/engine.h"
#include "store/matrix_store.h"

using namespace dpe;

namespace {

/// A checkpoint's on-disk footprint: its journal (every live generation)
/// and its current snapshot.
struct Footprint {
  uint64_t journal = 0;
  uint64_t snapshot = 0;
};

Footprint ReadFootprint(const std::string& dir) {
  auto store = store::MatrixStore::OpenExisting(dir);
  DPE_BENCH_CHECK(store);
  std::error_code ec;
  const uintmax_t snapshot = std::filesystem::file_size(
      std::filesystem::path(dir) /
          ("snapshot." + std::to_string(store->generation()) + ".dpe"),
      ec);
  return {store->JournalBytes(), ec ? 0 : static_cast<uint64_t>(snapshot)};
}

/// LoadCheckpoint + rebuild in a fresh engine; returns the matrix and fills
/// the timings the restart actually paid.
distance::DistanceMatrix Restart(const workload::Scenario& s,
                                 const std::string& dir, double* load_ms,
                                 double* rebuild_ms,
                                 engine::CheckpointLoadReport* report) {
  engine::Engine engine(s.Context(), {.threads = 2});
  *load_ms = bench::TimeMs([&] {
    auto loaded = engine.LoadCheckpoint(dir, report);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", loaded.ToString().c_str());
      std::exit(1);
    }
  });
  distance::DistanceMatrix matrix;
  *rebuild_ms = bench::TimeMs([&] {
    auto built = engine.BuildMatrix("token");
    DPE_BENCH_CHECK(built);
    matrix = std::move(built).value();
  });
  return matrix;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 192;
  size_t m = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      n = 48;
      m = 16;
    }
  }
  if (const char* env = std::getenv("DPE_BENCH_N")) {
    n = static_cast<size_t>(std::atoll(env));
  }
  if (const char* env = std::getenv("DPE_BENCH_M")) {
    m = static_cast<size_t>(std::atoll(env));
  }

  std::printf("== compaction: restart cost, long journal vs folded ==\n\n");
  std::printf("checkpointed N = %zu, journaled M = %zu\n\n", n, m);

  workload::Scenario s = bench::MakeShop(42, 60, n + m);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_bench_compaction")
          .string();
  std::filesystem::remove_all(dir);

  // Session 1: checkpoint N queries, then append M more WITHOUT a fresh
  // checkpoint — the M rows live only in the journal, the worst case a
  // crash-prone provider restarts from.
  {
    engine::Engine session(s.Context(), {.threads = 2});
    session.SetLog({s.log.begin(), s.log.begin() + n});
    DPE_BENCH_CHECK(session.BuildMatrix("token"));
    auto saved = session.SaveCheckpoint(dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", saved.ToString().c_str());
      return 1;
    }
    for (size_t i = n; i < n + m; ++i) {
      if (!session.AddQuery(s.log[i]).ok()) return 1;
    }
    DPE_BENCH_CHECK(session.BuildMatrix("token"));
  }

  const Footprint before = ReadFootprint(dir);

  // Restart A: replay the long journal.
  double long_load_ms = 0, long_rebuild_ms = 0;
  engine::CheckpointLoadReport long_report;
  distance::DistanceMatrix long_matrix =
      Restart(s, dir, &long_load_ms, &long_rebuild_ms, &long_report);

  // Fold: one compaction cycle publishes generation 1.
  double compact_ms = 0;
  {
    engine::Engine engine(s.Context(), {.threads = 2});
    auto loaded = engine.LoadCheckpoint(dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", loaded.ToString().c_str());
      return 1;
    }
    compact_ms = bench::TimeMs([&] {
      auto compacted = engine.CompactNow();
      DPE_BENCH_CHECK(compacted);
      if (!*compacted) {
        std::fprintf(stderr, "FATAL: compaction found nothing to fold\n");
        std::exit(1);
      }
    });
  }

  const Footprint after = ReadFootprint(dir);
  // A missing file reads as 0 bytes: fail rather than report a footprint
  // the store never had. The folded journal is legitimately empty — the
  // fold consumed it and nothing was appended since.
  if (before.journal == 0 || before.snapshot == 0 || after.snapshot == 0) {
    std::fprintf(stderr, "FATAL: a checkpoint file read as 0 bytes\n");
    return 1;
  }
  if (after.journal + after.snapshot > before.journal + before.snapshot) {
    std::fprintf(stderr,
                 "FATAL: the folded checkpoint (%llu B) is larger than the "
                 "long-journal one (%llu B)\n",
                 static_cast<unsigned long long>(after.journal +
                                                 after.snapshot),
                 static_cast<unsigned long long>(before.journal +
                                                 before.snapshot));
    return 1;
  }

  // Restart B: the folded generation — the journal replay is gone.
  double folded_load_ms = 0, folded_rebuild_ms = 0;
  engine::CheckpointLoadReport folded_report;
  distance::DistanceMatrix folded_matrix =
      Restart(s, dir, &folded_load_ms, &folded_rebuild_ms, &folded_report);

  // Bit-identity gate: folding must never change a single cell.
  auto delta =
      distance::DistanceMatrix::MaxAbsDifference(long_matrix, folded_matrix);
  DPE_BENCH_CHECK(delta);
  if (*delta != 0.0) {
    std::fprintf(stderr,
                 "FATAL: matrix after compaction differs from the "
                 "never-compacted restart\n");
    return 1;
  }

  std::printf("%-22s %12s %12s\n", "", "long journal", "folded");
  std::printf("%-22s %12.1f %12.1f\n", "load ms", long_load_ms,
              folded_load_ms);
  std::printf("%-22s %12.1f %12.1f\n", "rebuild ms", long_rebuild_ms,
              folded_rebuild_ms);
  std::printf("%-22s %12llu %12llu\n", "journal records replayed",
              static_cast<unsigned long long>(
                  long_report.journal_records_replayed),
              static_cast<unsigned long long>(
                  folded_report.journal_records_replayed));
  std::printf("%-22s %12llu %12llu\n", "journal bytes",
              static_cast<unsigned long long>(before.journal),
              static_cast<unsigned long long>(after.journal));
  std::printf("%-22s %12llu %12llu\n", "snapshot bytes",
              static_cast<unsigned long long>(before.snapshot),
              static_cast<unsigned long long>(after.snapshot));
  std::printf("\n(compaction took %.1f ms; both restarts verified "
              "bit-identical.)\n",
              compact_ms);

  bench::JsonReport report("compaction");
  report.Add("load_ms", long_load_ms, {{"layout", "long_journal"}});
  report.Add("load_ms", folded_load_ms, {{"layout", "folded"}});
  report.Add("rebuild_ms", long_rebuild_ms, {{"layout", "long_journal"}});
  report.Add("rebuild_ms", folded_rebuild_ms, {{"layout", "folded"}});
  report.Add("journal_records_replayed",
             static_cast<double>(long_report.journal_records_replayed),
             {{"layout", "long_journal"}});
  report.Add("journal_records_replayed",
             static_cast<double>(folded_report.journal_records_replayed),
             {{"layout", "folded"}});
  report.Add("journal_bytes", static_cast<double>(before.journal),
             {{"layout", "long_journal"}});
  report.Add("journal_bytes", static_cast<double>(after.journal),
             {{"layout", "folded"}});
  report.Add("snapshot_bytes", static_cast<double>(before.snapshot),
             {{"layout", "long_journal"}});
  report.Add("snapshot_bytes", static_cast<double>(after.snapshot),
             {{"layout", "folded"}});
  report.Add("compact_ms", compact_ms);

  std::filesystem::remove_all(dir);
  report.Write();
  return 0;
}
