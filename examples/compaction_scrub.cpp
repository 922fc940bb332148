// Crash-safe compaction + self-healing scrub walkthrough: a provider runs
// with background checkpoint compaction on (bounded restart cost), then a
// disk error flips a byte in the snapshot — and the next start quarantines
// the damaged rows and recomputes them instead of dying.
//
//   $ ./build/examples/compaction_scrub
//
// Self-checking: exits non-zero if any step (publish, scrub, bit-identity)
// does not behave as documented.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "engine/engine.h"
#include "workload/scenarios.h"

using namespace dpe;

int main() {
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 11;
  scenario_options.rows_per_relation = 40;
  scenario_options.log_size = 48;
  auto scenario = workload::MakeShopScenario(scenario_options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const auto& log = scenario->log;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_compaction_example")
          .string();
  std::filesystem::remove_all(dir);

  engine::EngineOptions options;
  options.threads = 2;
  options.enable_compaction = true;
  options.compaction_trigger_bytes = 1;  // demo: fold after every build

  // --- Session 1: mine, checkpoint, keep appending — compaction folds the
  // growing journal into new snapshot generations in the background. ------
  distance::DistanceMatrix reference;
  {
    engine::Engine engine(scenario->Context(), options);
    engine.SetLog({log.begin(), log.begin() + 40});
    if (!engine.BuildMatrix("token").ok()) return 1;
    if (!engine.SaveCheckpoint(dir).ok()) return 1;
    for (size_t i = 40; i < log.size(); ++i) {
      if (!engine.AddQuery(log[i]).ok()) return 1;
    }
    auto built = engine.BuildMatrix("token");
    if (!built.ok()) return 1;
    reference = std::move(built).value();
    // Make the fold deterministic for the walkthrough: one explicit cycle.
    auto compacted = engine.CompactNow();
    if (!compacted.ok()) return 1;
    std::printf("session 1: %zu queries mined, checkpoint generation %llu "
                "(journal folded)\n",
                engine.log_size(),
                static_cast<unsigned long long>(
                    engine.checkpoint_generation()));
    if (engine.checkpoint_generation() == 0) {
      std::fprintf(stderr, "FATAL: no compaction was published\n");
      return 1;
    }
  }

  // --- The disk bites: one byte of the snapshot flips. --------------------
  std::string snapshot_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot.", 0) == 0) snapshot_path = entry.path().string();
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "FATAL: no snapshot file found\n");
    return 1;
  }
  {
    std::ifstream in(snapshot_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() - 5] ^= 0x3c;  // lands in a triangle-row chunk
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::printf("corruption: flipped one byte of %s\n",
              snapshot_path.c_str());

  // A strict engine refuses the damaged checkpoint with a typed error.
  {
    engine::Engine strict(scenario->Context(), {.threads = 2});
    auto status = strict.LoadCheckpoint(dir);
    std::printf("strict load: %s\n", status.ToString().c_str());
    if (status.ok()) {
      std::fprintf(stderr, "FATAL: strict load accepted corruption\n");
      return 1;
    }
  }

  // --- Session 2: scrub_on_load quarantines + recomputes. -----------------
  // Scoped: the engine (and the background compaction its recompute
  // triggers) must be gone before the directory is removed.
  {
    engine::EngineOptions healing = options;
    healing.scrub_on_load = true;
    engine::Engine engine(scenario->Context(), healing);
    engine::CheckpointLoadReport report;
    if (!engine.LoadCheckpoint(dir, &report).ok()) {
      std::fprintf(stderr, "FATAL: self-healing load failed\n");
      return 1;
    }
    std::printf("healing load: scrubbed=%s, %llu cells quarantined, %llu "
                "recomputed\n",
                report.scrubbed ? "yes" : "no",
                static_cast<unsigned long long>(report.cells_quarantined),
                static_cast<unsigned long long>(report.cells_recomputed));
    if (!report.scrubbed || report.cells_quarantined == 0) {
      std::fprintf(stderr, "FATAL: the scrub did not engage\n");
      return 1;
    }

    auto rebuilt = engine.BuildMatrix("token");
    if (!rebuilt.ok()) return 1;
    auto delta =
        distance::DistanceMatrix::MaxAbsDifference(reference, *rebuilt);
    if (!delta.ok() || *delta != 0.0) {
      std::fprintf(stderr, "FATAL: recomputed matrix differs from the "
                           "pre-corruption state\n");
      return 1;
    }
    std::printf("verified: recomputed matrix is bit-identical to the "
                "pre-corruption build\n");
  }

  std::filesystem::remove_all(dir);
  return 0;
}
