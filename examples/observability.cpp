// Observability walkthrough: build a 256-query distance matrix with tracing
// on, then export everything the engine measured about itself —
//
//   metrics.prom               Prometheus exposition text (counters, gauges,
//                              latency histograms with p50/p95/p99)
//   trace.json                 Chrome trace-event JSON; open in
//                              chrome://tracing or https://ui.perfetto.dev
//   observability_report.json  the full StatsReport (metrics + stage
//                              timings + info labels) as JSON
//
//   $ ./build/examples/observability [output-dir]
//   $ DPE_TELEMETRY_PORT=9464 ./build/examples/observability
//         --serve --serve-ms 10000 [output-dir]       (telemetry mode)
//
// The example doubles as an end-to-end check of the observability layer's
// accounting and exits non-zero when any of these fail:
//   1. the distance.calls{measure=token} counter equals the upper-triangle
//      cell count n*(n-1)/2 exactly (every pair counted once, none twice);
//   2. the build's stage timings sum to within 10% of its wall time (the
//      stages cover the build, not a sample of it);
//   3. the cold build reports its `compute` and `copy` stages, and the
//      best of five cold builds (each on a fresh engine) has a wall time of
//      at most compute + 10% (storing the rows in the measure's distance
//      triangle costs next to nothing beside computing them);
//   4. the trace export is non-empty and structurally a Chrome trace.
//
// --serve additionally exercises the live telemetry path:
//   5. the engine's embedded server answers /metrics and /healthz over
//      real HTTP, and the scraped text carries the exact distance-call
//      counter from check 1;
//   6. a MetricsPusher pushing to an in-process sink delivers a payload
//      whose distance-call counters agree with the self-scrape.
// It then keeps the scrape endpoint alive for --serve-ms milliseconds so
// an external scraper (scripts/check.sh, curl) can hit it.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "obs/http.h"
#include "workload/scenarios.h"

using namespace dpe;

namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Every "dpe_distance_calls_total..." line of a Prometheus exposition, in
/// order — the stable counter family the push-vs-scrape check compares
/// (telemetry.requests et al. legitimately differ between the two).
std::vector<std::string> DistanceCallLines(const std::string& prom) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    std::string line = prom.substr(pos, eol - pos);
    if (line.rfind("dpe_distance_calls_total", 0) == 0) {
      lines.push_back(std::move(line));
    }
    pos = eol + 1;
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "observability_out";
  bool serve = false;
  long serve_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") {
      serve = true;
    } else if (arg == "--serve-ms" && i + 1 < argc) {
      serve_ms = std::atol(argv[++i]);
    } else {
      out_dir = arg;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", out_dir.c_str());
    return 1;
  }

  constexpr size_t kQueries = 256;
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 97;
  scenario_options.rows_per_relation = 40;
  scenario_options.log_size = kQueries;
  auto scenario = workload::MakeShopScenario(scenario_options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  engine::EngineOptions options{.threads = 2, .block = 32, .trace = true};
  if (serve && std::getenv("DPE_TELEMETRY_PORT") == nullptr) {
    options.telemetry_port = 0;  // ephemeral; env (when set) wins below
  }
  engine::Engine engine(scenario->Context(), options);
  if (serve) {
    if (engine.telemetry_port() < 0) {
      std::fprintf(stderr, "--serve: telemetry server failed to start\n");
      return 1;
    }
    std::printf("telemetry: http://127.0.0.1:%d/metrics\n",
                engine.telemetry_port());
  }
  engine.SetLog(scenario->log);

  engine::BuildReport report;
  auto matrix = engine.BuildMatrix("token", &report);
  if (!matrix.ok()) {
    std::fprintf(stderr, "build: %s\n", matrix.status().ToString().c_str());
    return 1;
  }
  std::printf("built %zu x %zu token matrix: %llu cells computed, "
              "%llu cached, backend %s, %.1f ms\n",
              report.n, report.n,
              static_cast<unsigned long long>(report.cells_computed),
              static_cast<unsigned long long>(report.cells_cached),
              report.backend.c_str(), report.wall_ms);

  // A mining pass on top of the warm triangle, so the trace and the api
  // latency histograms show more than one API.
  auto clusters = engine.RunKMedoids("token", {.k = 4});
  if (!clusters.ok()) {
    std::fprintf(stderr, "kmedoids: %s\n",
                 clusters.status().ToString().c_str());
    return 1;
  }

  int failures = 0;

  // -- Check 1: the per-measure distance-call counter is exact. -------------
  const uint64_t want_cells = kQueries * (kQueries - 1) / 2;
  const obs::MetricsSnapshot snapshot = engine.metrics().Snapshot();
  const obs::MetricSample* calls =
      snapshot.Find("distance.calls", {{"measure", "token"}});
  const uint64_t got_calls = calls != nullptr ? calls->counter_value : 0;
  if (got_calls != want_cells) {
    std::fprintf(stderr,
                 "FAIL: distance.calls{measure=token} = %llu, want %llu\n",
                 static_cast<unsigned long long>(got_calls),
                 static_cast<unsigned long long>(want_cells));
    ++failures;
  } else {
    std::printf("distance.calls{measure=token} = %llu == n(n-1)/2  ok\n",
                static_cast<unsigned long long>(got_calls));
  }

  // -- Check 2: stage timings account for the build's wall time. ------------
  double stage_sum_ms = 0.0;
  for (const obs::StageTiming& stage : report.stages) {
    std::printf("  stage %-12s %8.2f ms\n", stage.name.c_str(), stage.ms);
    stage_sum_ms += stage.ms;
  }
  const double drift = std::abs(report.wall_ms - stage_sum_ms);
  if (report.wall_ms <= 0.0 || drift > 0.10 * report.wall_ms) {
    std::fprintf(stderr,
                 "FAIL: stages sum to %.2f ms but the build took %.2f ms "
                 "(drift %.1f%%)\n",
                 stage_sum_ms, report.wall_ms,
                 report.wall_ms > 0.0 ? 100.0 * drift / report.wall_ms : 0.0);
    ++failures;
  } else {
    std::printf("stage sum %.2f ms vs wall %.2f ms (drift %.1f%%)  ok\n",
                stage_sum_ms, report.wall_ms,
                100.0 * drift / report.wall_ms);
  }

  // -- Check 3: the cold build costs its compute, plus at most 10%. ---------
  // One build of a few ms is at the mercy of the scheduler, so the ratio is
  // judged on the best of kColdBuilds cold builds: the one above plus more,
  // each on a fresh engine with its own registry (check 1's counter stays
  // exact).
  constexpr int kColdBuilds = 5;
  double best_wall_ms = 0.0, best_compute_ms = 0.0;
  bool stages_ok = true;
  for (int i = 0; i < kColdBuilds && stages_ok; ++i) {
    engine::BuildReport cold = report;
    if (i > 0) {
      obs::MetricsRegistry registry;
      engine::EngineOptions fresh_options = options;
      fresh_options.metrics = &registry;
      // An ephemeral port: DPE_TELEMETRY_PORT stays the main engine's.
      fresh_options.telemetry_port = 0;
      engine::Engine fresh(scenario->Context(), fresh_options);
      fresh.SetLog(scenario->log);
      if (!fresh.BuildMatrix("token", &cold).ok()) return 1;
    }
    double compute_ms = -1.0;
    bool has_copy = false;
    for (const obs::StageTiming& stage : cold.stages) {
      if (stage.name == "compute") compute_ms = stage.ms;
      if (stage.name == "copy") has_copy = true;
    }
    stages_ok = compute_ms > 0.0 && has_copy;
    if (stages_ok && (i == 0 || cold.wall_ms / compute_ms <
                                    best_wall_ms / best_compute_ms)) {
      best_wall_ms = cold.wall_ms;
      best_compute_ms = compute_ms;
    }
  }
  if (!stages_ok) {
    std::fprintf(stderr,
                 "FAIL: a cold build reports no compute or no copy stage\n");
    ++failures;
  } else if (best_wall_ms > 1.10 * best_compute_ms) {
    std::fprintf(stderr,
                 "FAIL: the best of %d cold builds took %.2f ms for %.2f ms "
                 "of compute (%.1f%% over, limit 10%%)\n",
                 kColdBuilds, best_wall_ms, best_compute_ms,
                 100.0 * (best_wall_ms / best_compute_ms - 1.0));
    ++failures;
  } else {
    std::printf("best of %d cold builds: wall %.2f ms vs compute %.2f ms "
                "(+%.1f%%)  ok\n",
                kColdBuilds, best_wall_ms, best_compute_ms,
                100.0 * (best_wall_ms / best_compute_ms - 1.0));
  }

  // -- Check 4: the trace exported something Chrome can load. ---------------
  const std::string trace_json = engine.trace().ToChromeJson();
  const size_t span_count = engine.trace().size();
  if (span_count == 0 ||
      trace_json.find("\"traceEvents\"") == std::string::npos ||
      trace_json.find("\"ph\":\"X\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL: trace export is empty or malformed\n");
    ++failures;
  } else {
    std::printf("trace captured %zu spans\n", span_count);
  }

  // -- Export everything. ---------------------------------------------------
  const obs::StatsReport stats = engine.Stats();
  const std::string prom_path = out_dir + "/metrics.prom";
  const std::string trace_path = out_dir + "/trace.json";
  const std::string json_path = out_dir + "/observability_report.json";
  if (!WriteFile(prom_path, stats.ToPrometheusText())) return 1;
  if (!WriteFile(trace_path, trace_json)) return 1;
  if (!WriteFile(json_path, stats.ToJson())) return 1;
  std::printf("wrote %s, %s, %s\n", prom_path.c_str(), trace_path.c_str(),
              json_path.c_str());

  if (serve) {
    // -- Check 5: the embedded server serves real HTTP. ---------------------
    const int port = engine.telemetry_port();
    obs::HttpResponse scraped;
    std::string error;
    if (!obs::HttpGet("127.0.0.1", port, "/metrics", 5000, &scraped, &error) ||
        scraped.status_code != 200) {
      std::fprintf(stderr, "FAIL: GET /metrics: %s (status %d)\n",
                   error.c_str(), scraped.status_code);
      ++failures;
    } else {
      const std::string want_line =
          "dpe_distance_calls_total{measure=\"token\"} " +
          std::to_string(want_cells);
      if (scraped.body.find(want_line) == std::string::npos) {
        std::fprintf(stderr, "FAIL: scraped /metrics lacks \"%s\"\n",
                     want_line.c_str());
        ++failures;
      } else {
        std::printf("scraped /metrics carries %s  ok\n", want_line.c_str());
      }
    }
    obs::HttpResponse health;
    if (!obs::HttpGet("127.0.0.1", port, "/healthz", 5000, &health, &error) ||
        health.status_code != 200 ||
        health.body.find("\"status\":\"ok\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL: GET /healthz: %s (status %d, body %s)\n",
                   error.c_str(), health.status_code, health.body.c_str());
      ++failures;
    } else {
      std::printf("healthz: %s\n", health.body.c_str());
    }

    // -- Check 6: pushed and scraped payloads agree. ------------------------
    auto sink = obs::HttpSink::Start(0, &error);
    if (sink == nullptr) {
      std::fprintf(stderr, "FAIL: sink: %s\n", error.c_str());
      ++failures;
    } else {
      obs::MetricsPusher::Options push_options;
      push_options.url =
          "http://127.0.0.1:" + std::to_string(sink->port()) + "/push";
      push_options.interval_ms = 60000;  // loop idles; PushNow drives it
      auto pusher = obs::MetricsPusher::Start(
          push_options, [&engine] { return engine.MetricsText(); }, &error);
      if (pusher == nullptr || !pusher->PushNow(&error)) {
        std::fprintf(stderr, "FAIL: push: %s\n", error.c_str());
        ++failures;
      } else {
        obs::HttpResponse rescrape;
        if (!obs::HttpGet("127.0.0.1", port, "/metrics", 5000, &rescrape,
                          &error)) {
          std::fprintf(stderr, "FAIL: re-scrape: %s\n", error.c_str());
          ++failures;
        } else if (DistanceCallLines(sink->last_body()) !=
                       DistanceCallLines(rescrape.body) ||
                   DistanceCallLines(sink->last_body()).empty()) {
          std::fprintf(stderr,
                       "FAIL: pushed and scraped distance-call counters "
                       "disagree\n");
          ++failures;
        } else {
          std::printf("pushed payload matches scrape (%llu pushes, %llu "
                      "failures)  ok\n",
                      static_cast<unsigned long long>(pusher->pushes()),
                      static_cast<unsigned long long>(pusher->failures()));
        }
      }
    }

    // Keep the endpoint alive for external scrapers (check.sh, curl).
    if (serve_ms > 0 && failures == 0) {
      std::printf("serving /metrics for %ld ms...\n", serve_ms);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(serve_ms));
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "%d observability check(s) failed\n", failures);
    return 1;
  }
  std::printf("all observability checks passed\n");
  return 0;
}
