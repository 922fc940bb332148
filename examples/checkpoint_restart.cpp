// Checkpoint + restart walkthrough: a service provider mines an encrypted
// query log that keeps growing, checkpoints the distance state (the query
// log plus one distance triangle per measure), "crashes", and resumes
// without recomputing the O(n^2) pairs it already paid for.
//
//   $ ./build/examples/checkpoint_restart
//
// Everything below uses the plaintext context for readability; the engine
// runs identically on the provider side with the encrypted artifacts in
// the MeasureContext (see clustering_outsourcing.cpp).

#include <cstdio>
#include <filesystem>

#include "engine/engine.h"
#include "workload/scenarios.h"

using namespace dpe;

int main() {
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 7;
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
      (std::filesystem::temp_directory_path() / "dpe_checkpoint_example")
          .string();
  std::filesystem::remove_all(dir);

  // --- Session 1: mine the first 40 queries, then checkpoint. -------------
  {
    engine::Engine engine(scenario->Context(),
                          {.threads = 2, .cache_max_bytes = 1 << 20});
    engine.SetLog({log.begin(), log.begin() + 40});
    auto clusters = engine.RunKMedoids("token", {.k = 4});
    if (!clusters.ok()) {
      std::fprintf(stderr, "mining: %s\n",
                   clusters.status().ToString().c_str());
      return 1;
    }
    auto stats = engine.cache_stats();
    std::printf("session 1: mined %zu queries (%zu pairwise distances "
                "computed)\n",
                engine.log_size(), static_cast<size_t>(stats.misses));
    if (!engine.SaveCheckpoint(dir).ok()) return 1;
    std::printf("session 1: checkpoint saved to %s\n\n", dir.c_str());
  }  // the process "dies" here — all in-memory state is gone

  // --- Session 2: restart, restore, 8 new queries arrive. -----------------
  engine::Engine engine(scenario->Context(),
                        {.threads = 2, .cache_max_bytes = 1 << 20});
  if (!engine.LoadCheckpoint(dir).ok()) return 1;
  std::printf("session 2: restored %zu queries, %zu distances in the "
              "token triangle\n",
              engine.log_size(), engine.cache_size());

  for (size_t i = 40; i < log.size(); ++i) {
    if (!engine.AddQuery(log[i]).ok()) return 1;  // journaled automatically
  }
  auto clusters = engine.RunKMedoids("token", {.k = 4});
  if (!clusters.ok()) return 1;
  auto stats = engine.cache_stats();
  std::printf("session 2: re-mined %zu queries — %zu distances copied from "
              "the\n           restored triangle, only %zu computed fresh "
              "(the new rows)\n",
              engine.log_size(), static_cast<size_t>(stats.hits),
              static_cast<size_t>(stats.misses));
  std::printf("           triangle footprint: %zu bytes, 8 per distance "
              "(budget %zu)\n",
              engine.cache_bytes_used(), static_cast<size_t>(1 << 20));

  std::filesystem::remove_all(dir);
  return 0;
}
