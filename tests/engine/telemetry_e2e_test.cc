// End-to-end live telemetry: the engine's embedded scrape server, the push
// exporter's failure isolation, and the crypto-layer instrumentation that
// encrypted-measure builds light up.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dpe.h"
#include "core/log_encryptor.h"
#include "engine/engine.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

using testutil::ExpectBitIdentical;
using testutil::Shop;

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

TEST(TelemetryE2eTest, OffByDefaultStartsNoServerOrPusher) {
  if (EnvSet("DPE_TELEMETRY_PORT") || EnvSet("DPE_TELEMETRY_PUSH_URL")) {
    GTEST_SKIP() << "telemetry env vars set; default-off does not apply";
  }
  workload::Scenario s = Shop(31, 8);
  obs::MetricsRegistry registry;
  Engine engine(s.Context(), {.threads = 2, .metrics = &registry});
  engine.SetLog(s.log);
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  EXPECT_EQ(engine.telemetry_server(), nullptr);
  EXPECT_EQ(engine.metrics_pusher(), nullptr);
  EXPECT_EQ(engine.telemetry_port(), -1);
}

TEST(TelemetryE2eTest, ScrapeDuringAndAfterBuildOverRealHttp) {
  constexpr size_t kQueries = 48;
  workload::Scenario s = Shop(37, kQueries);
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.block = 8;
  options.metrics = &registry;
  options.telemetry_port = 0;  // ephemeral
  Engine engine(s.Context(), options);
  engine.SetLog(s.log);
  const int port = engine.telemetry_port();
  ASSERT_GT(port, 0);

  // Scrape while a build is (potentially still) in flight on the caller's
  // thread: the server must answer every endpoint concurrently with the
  // compute.
  bool built = false;
  std::thread caller([&] { built = engine.BuildMatrix("token").ok(); });
  std::string error;
  for (const char* path : {"/metrics", "/healthz", "/stats", "/trace"}) {
    obs::HttpResponse mid;
    EXPECT_TRUE(obs::HttpGet("127.0.0.1", port, path, 5000, &mid, &error))
        << path << ": " << error;
    EXPECT_EQ(mid.status_code, 200) << path;
    if (std::string_view(path) == "/metrics") {
      EXPECT_NE(mid.body.find("# TYPE "), std::string::npos);
    }
  }
  caller.join();
  ASSERT_TRUE(built);

  // After the build, the scraped counter is exact.
  obs::HttpResponse done;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", port, "/metrics", 5000, &done,
                           &error))
      << error;
  const std::string want =
      "dpe_distance_calls_total{measure=\"token\"} " +
      std::to_string(kQueries * (kQueries - 1) / 2);
  EXPECT_NE(done.body.find(want), std::string::npos)
      << "missing \"" << want << "\" in scrape";
  // Rolling-window rate gauges ride along in the same exposition.
  EXPECT_NE(done.body.find("dpe_distance_calls_per_sec"), std::string::npos);

  obs::HttpResponse health;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", port, "/healthz", 5000, &health,
                           &error))
      << error;
  EXPECT_EQ(health.status_code, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"measure\":\"token\""), std::string::npos);

  obs::HttpResponse stats;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", port, "/stats", 5000, &stats,
                           &error))
      << error;
  EXPECT_EQ(stats.status_code, 200);
  EXPECT_NE(stats.body.find("\"metrics\""), std::string::npos);

  obs::HttpResponse trace;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", port, "/trace", 5000, &trace,
                           &error))
      << error;
  EXPECT_EQ(trace.status_code, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
}

TEST(TelemetryE2eTest, DeadPushGatewayNeverBlocksOrChangesBuilds) {
  workload::Scenario s = Shop(41, 18);

  obs::MetricsRegistry plain_registry;
  Engine plain(s.Context(), {.threads = 2, .metrics = &plain_registry});
  plain.SetLog(s.log);
  auto baseline = plain.BuildMatrix("token");
  ASSERT_TRUE(baseline.ok());

  // Grab a loopback port with nothing listening behind it.
  int dead_port = 0;
  {
    auto placeholder = obs::HttpSink::Start();
    ASSERT_NE(placeholder, nullptr);
    dead_port = placeholder->port();
  }

  obs::MetricsRegistry registry;
  EngineOptions options;
  options.threads = 2;
  options.metrics = &registry;
  options.telemetry_port = 0;
  options.telemetry_push_url =
      "http://127.0.0.1:" + std::to_string(dead_port) + "/push";
  options.telemetry_push_interval_ms = 10;
  options.telemetry_push_min_backoff_ms = 10;
  options.telemetry_push_max_backoff_ms = 40;
  Engine engine(s.Context(), options);
  engine.SetLog(s.log);

  auto built = engine.BuildMatrix("token");
  ASSERT_TRUE(built.ok()) << built.status();
  // Telemetry on (server + flapping pusher) vs off: bit-identical results.
  ExpectBitIdentical(*baseline, *built);

  const obs::MetricsPusher* pusher = engine.metrics_pusher();
  ASSERT_NE(pusher, nullptr);
  for (int i = 0; i < 500 && pusher->failures() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(pusher->failures(), 1u);
  EXPECT_EQ(pusher->pushes(), 0u);
  EXPECT_GT(pusher->backoff_ms(), 0);
  EXPECT_LE(pusher->backoff_ms(), options.telemetry_push_max_backoff_ms);
  // Engine destruction mid-backoff must not hang (covered by scope exit).
}

TEST(TelemetryE2eTest, EncryptedResultMeasureExportsCryptoOpsAndSpans) {
  // Provider-side build of the homomorphic result measure: the Paillier
  // aggregate folds underneath it must surface as scheme-labeled crypto
  // ops (process-default registry) and as spans in the engine's trace.
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 77;
  scenario_options.rows_per_relation = 40;
  scenario_options.log_size = 12;
  auto scenario = workload::MakeShopScenario(scenario_options);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  crypto::KeyManager keys("telemetry-e2e");
  core::LogEncryptor::Options enc_options;
  enc_options.paillier_bits = 256;
  enc_options.ope_range_bits = 80;
  enc_options.rng_seed = "telemetry-e2e";
  auto enc = core::LogEncryptor::Create(
      core::CanonicalScheme(core::MeasureKind::kResult), keys,
      scenario->database, scenario->log, scenario->domains, enc_options);
  ASSERT_TRUE(enc.ok()) << enc.status();
  auto artifacts = enc->EncryptAll();
  ASSERT_TRUE(artifacts.ok()) << artifacts.status();

  distance::MeasureContext ctx;
  db::DomainRegistry empty_domains;
  ASSERT_TRUE(artifacts->encrypted_db.has_value());
  ctx.database = &*artifacts->encrypted_db;
  ctx.exec_options = &artifacts->provider_options;
  ctx.domains = artifacts->encrypted_domains.has_value()
                    ? &*artifacts->encrypted_domains
                    : &empty_domains;

  const auto paillier_ops = [] {
    uint64_t total = 0;
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::Default().Snapshot().samples) {
      if (sample.name != "crypto.ops") continue;
      for (const auto& [k, v] : sample.labels) {
        if (k == "scheme" && v == "paillier") total += sample.counter_value;
      }
    }
    return total;
  };
  const uint64_t ops_before = paillier_ops();

  obs::MetricsRegistry registry;
  Engine engine(ctx, {.threads = 2, .trace = true, .metrics = &registry});
  engine.SetLog(artifacts->encrypted_log);
  auto built = engine.BuildMatrix("result");
  ASSERT_TRUE(built.ok()) << built.status();

  // The encrypted build did real Paillier work and counted it.
  EXPECT_GT(paillier_ops(), ops_before);

  // Spans from the crypto/cryptdb layer landed in the engine's trace via
  // the ambient buffer (installed on the build and on pool workers).
  bool crypto_span = false;
  for (const obs::TraceEvent& event : engine.trace().Events()) {
    if (event.name.rfind("crypto.", 0) == 0 ||
        event.name.rfind("cryptdb.", 0) == 0) {
      crypto_span = true;
      break;
    }
  }
  EXPECT_TRUE(crypto_span) << "no crypto./cryptdb. span in the build trace";
}

}  // namespace
}  // namespace dpe::engine
