// The three workloads: set-up, the timed phases, and the untraced and
// traced runs built from them.
//
// Every workload runs all three phases of the owner->provider story so that
// every end-to-end metric exists on every workload. The workload decides the
// inputs and which phase gets most of the measured time (60%); the other two
// phases interleave with it, round robin, in the remaining 40%:
//
//   outsource_batch  main: batch phase, all four Table-I schemes, n = 544;
//                    side: 24-arrival stream episodes, restarts of 512 + 24
//   stream_append    main: stream episodes of 200 arrivals on n0 = 512;
//                    side: token-only batches over 512, restarts of 512 + 24
//   restart_recover  main: restarts of a SkyServer checkpoint, 384 + 128;
//                    side: token-only batches over 528, 24-arrival episodes
//
// The phases run in one process, one closed-loop client, on a 2-thread
// engine pool. Everything the program under test would not pay for itself
// (plaintext references, checkpoint templates, directory copies) happens
// outside the timed regions.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/log_encryptor.h"
#include "crypto/keys.h"
#include "mining/knn.h"
#include "mining/outlier.h"

namespace perfbench {

using dpe::Result;
using dpe::Status;
using dpe::core::MeasureKind;
using dpe::engine::Engine;
using dpe::sql::SelectQuery;

Sizes SizesFor(const std::string& workload, bool tiny) {
  Sizes s;
  if (workload == "outsource_batch") {
    s.n_total = tiny ? 40 : 544;
    s.batch_kinds.assign(kAllKinds.begin(), kAllKinds.end());
    s.batch_n = s.n_total;
    s.stream_base = tiny ? 28 : 512;
    s.stream_arrivals = tiny ? 8 : 24;
    s.restart_n = s.stream_base;
    s.restart_m = tiny ? 8 : 24;
    s.restart_k = tiny ? 4 : 8;
  } else if (workload == "stream_append") {
    s.n_total = tiny ? 48 : 720;
    s.batch_kinds = {MeasureKind::kToken};
    s.batch_n = tiny ? 32 : 512;
    s.stream_base = tiny ? 32 : 512;
    s.stream_arrivals = tiny ? 12 : 200;
    s.restart_n = s.stream_base;
    s.restart_m = tiny ? 8 : 24;
    s.restart_k = tiny ? 4 : 8;
  } else {  // restart_recover
    s.sky = true;
    s.rows = 50;
    s.n_total = tiny ? 44 : 528;
    s.batch_kinds = {MeasureKind::kToken};
    s.batch_n = s.n_total;
    s.restart_n = tiny ? 24 : 384;
    s.restart_m = tiny ? 12 : 128;
    s.restart_k = tiny ? 4 : 16;
    s.stream_base = s.restart_n;
    s.stream_arrivals = tiny ? 8 : 24;
  }
  return s;
}

dpe::core::LogEncryptor::Options OwnerOptions() {
  dpe::core::LogEncryptor::Options o;
  o.paillier_bits = 512;
  o.ope_range_bits = 96;
  // Fixed, so Paillier prime search costs the same on every seed; the
  // inputs (scenario and log) vary with the seed.
  o.rng_seed = "perfbench-owner";
  return o;
}

std::string Name(MeasureKind kind) { return MeasureKindName(kind); }

std::vector<SelectQuery> Prefix(const std::vector<SelectQuery>& log,
                                size_t n) {
  return {log.begin(), log.begin() + static_cast<std::ptrdiff_t>(n)};
}

/// Provider-side measure context over one scheme's artifacts.
dpe::distance::MeasureContext ProviderContext(
    const dpe::core::EncryptionArtifacts& art,
    const dpe::db::DomainRegistry& empty_domains) {
  dpe::distance::MeasureContext ctx;
  if (art.encrypted_db.has_value()) {
    ctx.database = &*art.encrypted_db;
    ctx.exec_options = &art.provider_options;
  }
  ctx.domains = art.encrypted_domains.has_value() ? &*art.encrypted_domains
                                                  : &empty_domains;
  return ctx;
}

namespace {

/// Long-journal and folded checkpoint templates over the token log:
/// snapshot of N, journal of M appended and built rows, and a copy whose
/// journal CompactNow folded into the next snapshot generation.
Status PrepareRestartTemplates(Setup& s) {
  s.restart_long = s.dir + "/restart-long";
  s.restart_folded = s.dir + "/restart-folded";
  {
    Engine e(dpe::distance::MeasureContext{}, PinnedOptions(false));
    e.SetLog(Prefix(s.enc_log, s.sz.restart_n));
    DPE_RETURN_NOT_OK(e.BuildMatrix("token").status());
    DPE_RETURN_NOT_OK(e.SaveCheckpoint(s.restart_long));
    for (size_t j = 0; j < s.sz.restart_m; ++j) {
      DPE_RETURN_NOT_OK(e.AddQuery(s.enc_log[s.sz.restart_n + j]));
    }
    DPE_RETURN_NOT_OK(e.BuildMatrix("token").status());
  }
  DPE_RETURN_NOT_OK(CopyTree(s.restart_long, s.restart_folded));
  Engine f(dpe::distance::MeasureContext{}, PinnedOptions(false));
  DPE_RETURN_NOT_OK(f.LoadCheckpoint(s.restart_folded));
  DPE_ASSIGN_OR_RETURN(bool folded, f.CompactNow());
  if (!folded) return Status::Internal("CompactNow found nothing to fold");
  return Status::OK();
}

Result<std::unique_ptr<Setup>> MakeSetup(const RunConfig& config,
                                         const std::string& dir) {
  auto s = std::make_unique<Setup>();
  s->sz = SizesFor(config.workload, config.tiny);
  s->dir = dir;
  RemoveTree(dir);
  const Sizes& sz = s->sz;

  dpe::workload::ScenarioOptions so;
  so.seed = config.seed;
  so.rows_per_relation = sz.rows;
  so.log_size = sz.n_total;
  DPE_ASSIGN_OR_RETURN(s->scenario,
                       sz.sky ? dpe::workload::MakeSkyServerScenario(so)
                              : dpe::workload::MakeShopScenario(so));
  if (s->scenario.log.size() != sz.n_total) {
    return Status::Internal("scenario produced " +
                            std::to_string(s->scenario.log.size()) +
                            " queries, wanted " + std::to_string(sz.n_total));
  }
  s->batch_log = Prefix(s->scenario.log, sz.batch_n);

  // Key material and the token ciphertexts the stream and restart phases
  // replay.
  s->master_key = "perfbench-master/" + std::to_string(config.seed);
  s->keys.emplace(s->master_key);
  DPE_ASSIGN_OR_RETURN(
      dpe::core::LogEncryptor enc,
      dpe::core::LogEncryptor::Create(
          dpe::core::CanonicalScheme(MeasureKind::kToken), *s->keys,
          s->scenario.database, s->scenario.log, s->scenario.domains,
          OwnerOptions()));
  s->token_enc.emplace(std::move(enc));
  DPE_ASSIGN_OR_RETURN(dpe::core::EncryptionArtifacts token_art,
                       s->token_enc->EncryptAll());
  s->enc_log = std::move(token_art.encrypted_log);

  // Plaintext references: what the owner would compute without outsourcing.
  const dpe::distance::MeasureContext plain_ctx = s->scenario.Context();
  {
    Engine full(plain_ctx, PinnedOptions(false));
    full.SetLog(s->scenario.log);
    DPE_ASSIGN_OR_RETURN(s->ref_token, full.BuildMatrix("token"));
  }
  {
    Engine batch(plain_ctx, PinnedOptions(false));
    batch.SetLog(s->batch_log);
    for (MeasureKind kind : sz.batch_kinds) {
      DPE_ASSIGN_OR_RETURN(s->batch_ref[kind], batch.BuildMatrix(Name(kind)));
      DPE_ASSIGN_OR_RETURN(s->batch_miners[kind],
                           RunMiners(batch, Name(kind), nullptr));
    }
  }
  DPE_RETURN_NOT_OK(PrepareRestartTemplates(*s));
  return s;
}

// -- Phases -------------------------------------------------------------------

struct BatchTimes {
  double owner_ms = 0, build_ms = 0, mine_ms = 0;
};

/// Owner: key set-up, then Create + EncryptAll per scheme. Provider: a cold
/// BuildMatrix per encrypted log, then the four miners on each.
Result<BatchTimes> BatchPhase(const Setup& s, Tracer* tracer, Checker& check) {
  const auto& kinds = s.sz.batch_kinds;
  BatchTimes t;
  std::optional<dpe::crypto::KeyManager> keys;
  std::vector<dpe::core::LogEncryptor> encs;
  std::vector<dpe::core::EncryptionArtifacts> arts;
  Span owner(tracer, "bench", "owner");
  {
    Span k(tracer, "crypto", "KeyManager");
    keys.emplace(s.master_key);
  }
  for (MeasureKind kind : kinds) {
    Result<dpe::core::LogEncryptor> enc = [&] {
      Span c(tracer, "core", "LogEncryptor::Create." + Name(kind));
      return dpe::core::LogEncryptor::Create(
          dpe::core::CanonicalScheme(kind), *keys, s.scenario.database,
          s.batch_log, s.scenario.domains, OwnerOptions());
    }();
    DPE_RETURN_NOT_OK(enc.status());
    encs.push_back(std::move(enc).value());
    Span a(tracer, "core", "EncryptAll." + Name(kind));
    DPE_ASSIGN_OR_RETURN(dpe::core::EncryptionArtifacts art,
                         encs.back().EncryptAll());
    arts.push_back(std::move(art));
  }
  t.owner_ms = owner.End();

  const dpe::db::DomainRegistry empty_domains;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<DistanceMatrix> built;
  Span build(tracer, "bench", "provider.build");
  for (size_t i = 0; i < kinds.size(); ++i) {
    {
      Span e(tracer, "engine", "Engine+SetLog." + Name(kinds[i]));
      engines.push_back(std::make_unique<Engine>(
          ProviderContext(arts[i], empty_domains), PinnedOptions(false)));
      engines.back()->SetLog(std::move(arts[i].encrypted_log));
    }
    Span b(tracer, "engine", "BuildMatrix." + Name(kinds[i]));
    DPE_ASSIGN_OR_RETURN(DistanceMatrix m,
                         engines.back()->BuildMatrix(Name(kinds[i])));
    built.push_back(std::move(m));
  }
  t.build_ms = build.End();

  std::vector<MinerOutputs> mined;
  Span mine(tracer, "bench", "provider.mine");
  for (size_t i = 0; i < kinds.size(); ++i) {
    DPE_ASSIGN_OR_RETURN(MinerOutputs out,
                         RunMiners(*engines[i], Name(kinds[i]), tracer));
    mined.push_back(std::move(out));
  }
  t.mine_ms = mine.End();

  for (size_t i = 0; i < kinds.size(); ++i) {
    check.Expect(SameBits(built[i], s.batch_ref.at(kinds[i])),
                 "encrypted " + Name(kinds[i]) +
                     " matrix differs from the plaintext matrix");
    const std::string diff = CompareMiners(s.batch_miners.at(kinds[i]), mined[i]);
    check.Expect(diff.empty(), "encrypted " + Name(kinds[i]) + " " + diff +
                                   " differ from plaintext mining");
  }
  return t;
}

/// One stream episode: a warm, checkpointed token engine over the base log
/// (prepared untimed), then one timed arrival per query. Step() runs a
/// chunk of arrivals, so other phases can interleave with a long episode.
class StreamEpisode {
 public:
  StreamEpisode(const Setup& s, std::string dir)
      : s_(s), dir_(std::move(dir)), next_(s.sz.stream_base) {}
  ~StreamEpisode() {
    engine_.reset();
    RemoveTree(dir_);
  }
  StreamEpisode(const StreamEpisode&) = delete;
  StreamEpisode& operator=(const StreamEpisode&) = delete;

  bool done() const { return next_ == end(); }

  /// Runs up to `max_arrivals` arrivals; Finish()es after the last one.
  Status Step(size_t max_arrivals, Tracer* tracer, Checker& check,
              std::vector<double>& latencies_ms) {
    if (engine_ == nullptr) {
      RemoveTree(dir_);
      engine_ = std::make_unique<Engine>(dpe::distance::MeasureContext{},
                                         PinnedOptions(true));
      engine_->SetLog(Prefix(s_.enc_log, next_));
      DPE_RETURN_NOT_OK(engine_->BuildMatrix("token").status());
      DPE_RETURN_NOT_OK(engine_->SaveCheckpoint(dir_));
    }
    for (size_t k = 0; k < max_arrivals && !done(); ++k, ++next_) {
      Span arrival(tracer, "bench", "stream.arrival");
      Result<SelectQuery> q = [&] {
        Span c(tracer, "core", "EncryptQuery");
        return s_.token_enc->EncryptQuery(s_.scenario.log[next_]);
      }();
      DPE_RETURN_NOT_OK(q.status());
      {
        Span a(tracer, "engine", "AddQuery");
        DPE_RETURN_NOT_OK(engine_->AddQuery(std::move(q).value()));
      }
      {
        Span b(tracer, "engine", "BuildMatrix.token");
        DPE_ASSIGN_OR_RETURN(last_, engine_->BuildMatrix("token"));
      }
      {
        Span o(tracer, "engine", "RunOutlierKnn.token");
        DPE_ASSIGN_OR_RETURN(outliers_,
                             engine_->RunOutlierKnn("token", OutlierParams(),
                                                    kOutlierNeighbors));
      }
      latencies_ms.push_back(arrival.End());
    }
    return done() ? Finish(check) : Status::OK();
  }

  /// Checks the matrix and outliers after the last arrival so far against
  /// the plaintext references over the same prefix of the log.
  Status Finish(Checker& check) {
    if (finished_ || next_ == s_.sz.stream_base) return Status::OK();
    finished_ = true;
    const DistanceMatrix expected = Leading(s_.ref_token, next_);
    check.Expect(SameBits(last_, expected),
                 "stream matrix differs from a from-scratch plaintext build");
    dpe::engine::OutlierKnnReport plain;
    DPE_ASSIGN_OR_RETURN(
        plain.outliers,
        dpe::mining::DistanceBasedOutliers(expected, OutlierParams()));
    for (size_t o : plain.outliers.outliers) {
      DPE_ASSIGN_OR_RETURN(
          std::vector<size_t> neighbors,
          dpe::mining::NearestNeighbors(expected, o, kOutlierNeighbors));
      plain.neighbors.push_back(std::move(neighbors));
    }
    check.Expect(outliers_.outliers.outliers == plain.outliers.outliers &&
                     outliers_.neighbors == plain.neighbors,
                 "stream outliers differ from plaintext outliers");
    return Status::OK();
  }

 private:
  size_t end() const { return s_.sz.stream_base + s_.sz.stream_arrivals; }

  const Setup& s_;
  const std::string dir_;
  size_t next_;
  bool finished_ = false;
  std::unique_ptr<Engine> engine_;
  DistanceMatrix last_;
  dpe::engine::OutlierKnnReport outliers_;
};

struct RestartTimes {
  double long_ms = 0, folded_ms = 0, save_ms = 0, bytes_per_cell = 0;
};

/// One restart from a fresh copy of each template: new Engine,
/// LoadCheckpoint, K adds, BuildMatrix. After the long-journal restart its
/// full state is saved to a fresh directory.
Result<RestartTimes> RestartPhase(const Setup& s, const std::string& dir,
                                  Tracer* tracer, Checker& check) {
  const size_t nm = s.sz.restart_n + s.sz.restart_m;
  const DistanceMatrix expected = Leading(s.ref_token, nm + s.sz.restart_k);
  RestartTimes t;
  for (const bool folded : {false, true}) {
    const std::string copy = dir + (folded ? "/folded" : "/long");
    DPE_RETURN_NOT_OK(
        CopyTree(folded ? s.restart_folded : s.restart_long, copy));
    std::optional<Engine> e;
    DistanceMatrix m;
    Span r(tracer, "bench", folded ? "restart.folded" : "restart.long");
    {
      Span c(tracer, "engine", "Engine");
      e.emplace(dpe::distance::MeasureContext{}, PinnedOptions(false));
    }
    {
      Span l(tracer, "engine", "LoadCheckpoint");
      DPE_RETURN_NOT_OK(e->LoadCheckpoint(copy));
    }
    for (size_t j = 0; j < s.sz.restart_k; ++j) {
      Span a(tracer, "engine", "AddQuery");
      DPE_RETURN_NOT_OK(e->AddQuery(s.enc_log[nm + j]));
    }
    {
      Span b(tracer, "engine", "BuildMatrix.token");
      DPE_ASSIGN_OR_RETURN(m, e->BuildMatrix("token"));
    }
    (folded ? t.folded_ms : t.long_ms) = r.End();
    check.Expect(SameBits(m, expected),
                 std::string(folded ? "folded" : "long-journal") +
                     " restart matrix differs from the cold build");
    if (!folded) {
      const std::string saved = dir + "/saved";
      dpe::engine::CheckpointSaveReport report;
      Span sv(tracer, "engine", "SaveCheckpoint");
      DPE_RETURN_NOT_OK(e->SaveCheckpoint(saved, &report));
      t.save_ms = sv.End();
      check.Expect(report.cache_entries > 0, "checkpoint persisted no cells");
      t.bytes_per_cell = static_cast<double>(TreeBytes(saved)) /
                         static_cast<double>(report.cache_entries);
      RemoveTree(saved);
    }
    e.reset();
    RemoveTree(copy);
  }
  return t;
}

/// Arrivals per stream step: a chunk short enough to interleave with the
/// other phases, long enough to amortize the loop.
constexpr size_t kStreamChunk = 25;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 3;
/// The share of a run's measured time the two side phases get together.
constexpr double kSideShare = 0.4;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A reference with one perturbed cell must read as a mismatch; otherwise
/// the comparisons above prove nothing.
void SelfCheck(const Setup& s, RunOutput& out) {
  DistanceMatrix perturbed = s.ref_token;
  perturbed.set(0, 1, std::nextafter(perturbed.at(0, 1), 2.0));
  const bool detected = !SameBits(s.ref_token, perturbed);
  out.checker.Expect(detected,
                     "self-check: a perturbed reference cell went unnoticed");
  out.notes.push_back(std::string("self-check: perturbed reference ") +
                      (detected ? "reported as a mismatch" : "NOT detected"));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "outsource_batch", "stream_append", "restart_recover"};
  return names;
}

Status RunWorkload(const RunConfig& config, RunOutput& out) {
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s;
  for (size_t r = 0; r < kSetupReps; ++r) {
    s.reset();
    const auto t0 = std::chrono::steady_clock::now();
    DPE_ASSIGN_OR_RETURN(s, MakeSetup(config, config.workdir + "/setup"));
    setup_s.push_back(SecondsSince(t0));
  }
  Checker& check = out.checker;

  std::vector<double> owner, build, mine, arrivals, restart, folded, save,
      bytes_per_cell;
  auto batch = [&]() -> Status {
    DPE_ASSIGN_OR_RETURN(BatchTimes t, BatchPhase(*s, nullptr, check));
    owner.push_back(t.owner_ms / 1e3);
    build.push_back(t.build_ms / 1e3);
    mine.push_back(t.mine_ms / 1e3);
    return Status::OK();
  };
  // The stream phase advances one episode a chunk of arrivals at a time and
  // starts a fresh episode after the last arrival.
  std::unique_ptr<StreamEpisode> episode;
  auto stream = [&]() -> Status {
    if (episode == nullptr || episode->done()) {
      episode.reset();
      episode = std::make_unique<StreamEpisode>(*s, config.workdir + "/stream");
    }
    return episode->Step(kStreamChunk, nullptr, check, arrivals);
  };
  auto restart_rep = [&]() -> Status {
    DPE_ASSIGN_OR_RETURN(
        RestartTimes t,
        RestartPhase(*s, config.workdir + "/restart", nullptr, check));
    restart.push_back(t.long_ms);
    folded.push_back(t.folded_ms);
    save.push_back(t.save_ms);
    bytes_per_cell.push_back(t.bytes_per_cell);
    return Status::OK();
  };

  // The workload's own phase gets most of the measured time; the other two
  // phases interleave with it, round robin, so every metric samples the
  // whole run rather than one stretch of it.
  const std::string& w = config.workload;
  using Phase = std::function<Status()>;
  const Phase main_phase = w == "outsource_batch" ? Phase(batch)
                           : w == "stream_append" ? Phase(stream)
                                                  : Phase(restart_rep);
  std::vector<Phase> side;
  if (w != "outsource_batch") side.push_back(batch);
  if (w != "stream_append") side.push_back(stream);
  if (w != "restart_recover") side.push_back(restart_rep);
  double main_s = 0, side_s = 0;
  size_t main_runs = 0, side_runs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (SecondsSince(t0) < config.seconds || main_runs == 0 ||
         side_runs < side.size()) {
    const bool side_turn =
        main_runs > 0 && (side_runs < side.size() ||
                          side_s < kSideShare * (main_s + side_s));
    const auto u0 = std::chrono::steady_clock::now();
    if (side_turn) {
      DPE_RETURN_NOT_OK(side[side_runs++ % side.size()]());
      side_s += SecondsSince(u0);
    } else {
      DPE_RETURN_NOT_OK(main_phase());
      ++main_runs;
      main_s += SecondsSince(u0);
    }
  }
  // An episode the run cut short is checked at the arrival it reached.
  if (episode != nullptr) DPE_RETURN_NOT_OK(episode->Finish(check));
  episode.reset();
  out.notes.push_back("phases: main " + std::to_string(main_s) + " s (" +
                      std::to_string(main_runs) + " units), side " +
                      std::to_string(side_s) + " s (" +
                      std::to_string(side_runs) + " units)");
  SelfCheck(*s, out);

  auto put = [&](const char* name, double value, const char* unit) {
    out.metrics[name] = Metric{value, unit};
  };
  put("setup_s", Median(setup_s), "s");
  put("owner_encrypt_s", Median(owner), "s");
  put("provider_build_s", Median(build), "s");
  put("provider_mine_s", Median(mine), "s");
  put("stream_latency_ms_p50", Percentile(arrivals, 0.50), "ms");
  put("stream_latency_ms_p95", Percentile(arrivals, 0.95), "ms");
  put("restart_ms_p50", Median(restart), "ms");
  put("restart_folded_ms_p50", Median(folded), "ms");
  put("checkpoint_save_ms", Median(save), "ms");
  put("store_bytes_per_cell", Median(bytes_per_cell), "B");
  put("peak_rss_mb", PeakRssMb(), "MiB");
  out.notes.push_back(
      "samples: setup " + std::to_string(setup_s.size()) + ", batch " +
      std::to_string(owner.size()) + ", arrivals " +
      std::to_string(arrivals.size()) + ", restarts " +
      std::to_string(restart.size()) + " (long) + " +
      std::to_string(folded.size()) + " (folded)");
  s.reset();
  RemoveTree(config.workdir + "/setup");
  return Status::OK();
}

namespace {

/// "crypto.ops{op=,scheme=}" counters of the process-default registry.
const std::vector<std::pair<std::string, std::string>>& CryptoOps() {
  static const std::vector<std::pair<std::string, std::string>> ops = {
      {"det", "encrypt"},      {"ope", "encrypt"},    {"prob", "encrypt"},
      {"paillier", "encrypt"}, {"paillier", "add"},   {"bigint", "modexp"},
      {"cryptdb", "rewrite"}};
  return ops;
}

std::vector<uint64_t> CryptoOpCounts() {
  const dpe::obs::MetricsSnapshot snap =
      dpe::obs::MetricsRegistry::Default().Snapshot();
  std::vector<uint64_t> counts;
  for (const auto& [scheme, op] : CryptoOps()) {
    const dpe::obs::MetricSample* sample =
        snap.Find("crypto.ops", {{"op", op}, {"scheme", scheme}});
    counts.push_back(sample != nullptr ? sample->counter_value : 0);
  }
  return counts;
}

/// Layer self times of one tracer as a table, unattributed time included.
std::string SelfTimeTable(const std::string& title, const Tracer& tracer,
                          double units) {
  const std::map<std::string, double> self = tracer.SelfTimesMs();
  const double wall = tracer.RootWallMs();
  std::string table = title + " (ms per unit, " +
                      std::to_string(static_cast<int>(units)) + " units)\n";
  char line[160];
  for (const auto& [layer, ms] : self) {
    std::snprintf(line, sizeof line, "  %-22s %12.3f  %5.1f%%\n",
                  layer == "bench" ? "unattributed (bench)" : layer.c_str(),
                  ms / units, wall > 0 ? 100.0 * ms / wall : 0.0);
    table += line;
  }
  std::snprintf(line, sizeof line, "  %-22s %12.3f\n", "wall (root spans)",
                wall / units);
  return table + line;
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) return Status::Internal("short write " + path);
  return Status::OK();
}

}  // namespace

Status RunTraced(const RunConfig& config, RunOutput& out) {
  DPE_ASSIGN_OR_RETURN(std::unique_ptr<Setup> s,
                       MakeSetup(config, config.workdir + "/setup"));
  const std::string& w = config.workload;
  const std::string dir = config.workdir + "/traced";
  // One unit of the workload's own phase; restarts are short, so five.
  const size_t reps = w == "restart_recover" ? 5 : 1;
  auto unit = [&](Tracer* tracer) -> Status {
    for (size_t r = 0; r < reps; ++r) {
      if (w == "outsource_batch") {
        DPE_RETURN_NOT_OK(BatchPhase(*s, tracer, out.checker).status());
      } else if (w == "stream_append") {
        std::vector<double> latencies;
        StreamEpisode episode(*s, dir);
        DPE_RETURN_NOT_OK(episode.Step(s->sz.stream_arrivals, tracer,
                                       out.checker, latencies));
      } else {
        DPE_RETURN_NOT_OK(RestartPhase(*s, dir, tracer, out.checker).status());
      }
    }
    return Status::OK();
  };

  auto t0 = std::chrono::steady_clock::now();
  DPE_RETURN_NOT_OK(unit(nullptr));
  const double untraced_s = SecondsSince(t0);

  Tracer tracer;
  const std::vector<uint64_t> ops_before = CryptoOpCounts();
  t0 = std::chrono::steady_clock::now();
  DPE_RETURN_NOT_OK(unit(&tracer));
  const double traced_s = SecondsSince(t0);
  const std::vector<uint64_t> ops_after = CryptoOpCounts();
  for (size_t i = 0; i < CryptoOps().size(); ++i) {
    const auto& [scheme, op] = CryptoOps()[i];
    out.metrics["crypto.ops." + scheme + "." + op] =
        Metric{static_cast<double>(ops_after[i] - ops_before[i]) /
                   static_cast<double>(reps),
               "count"};
  }
  out.metrics["obs.trace_overhead_ratio"] =
      Metric{traced_s / untraced_s, "ratio"};

  Tracer probes;
  DPE_RETURN_NOT_OK(LayerPass(*s, dir, &probes, out));
  RemoveTree(dir);

  const std::string stem =
      config.out_dir + "/" + w + "-seed" + std::to_string(config.seed);
  const std::string tables =
      SelfTimeTable("layer self times, " + w + " traced pass", tracer,
                    static_cast<double>(reps)) +
      SelfTimeTable("layer self times, " + w + " probe pass", probes, 1.0);
  DPE_RETURN_NOT_OK(WriteFile(stem + ".workload.trace.json",
                              tracer.ChromeJson()));
  DPE_RETURN_NOT_OK(WriteFile(stem + ".probes.trace.json", probes.ChromeJson()));
  DPE_RETURN_NOT_OK(WriteFile(stem + ".layers.txt", tables));
  out.notes.push_back(tables);
  out.notes.push_back("tracing overhead: traced " + std::to_string(traced_s) +
                      " s / untraced " + std::to_string(untraced_s) + " s");
  out.notes.push_back("trace files: " + stem + ".{workload,probes}.trace.json, " +
                      stem + ".layers.txt");
  SelfCheck(*s, out);
  s.reset();
  RemoveTree(config.workdir + "/setup");
  return Status::OK();
}

}  // namespace perfbench
