// The per-layer probes of a traced run. Each probe calls one layer
// directly, on the same inputs the workload uses, so the time the engine
// facade hides (cache upkeep around the builder, encrypted execution under
// the result measure, snapshot decode under LoadCheckpoint) shows on its
// own. Every probe is timed from outside with a Span.

#include <filesystem>
#include <functional>

#include "bench.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "crypto/csprng.h"
#include "crypto/paillier.h"
#include "cryptdb/encrypted_db.h"
#include "db/executor.h"
#include "distance/features.h"
#include "engine/matrix_builder.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/knn.h"
#include "mining/outlier.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "store/matrix_store.h"

namespace perfbench {

using dpe::Result;
using dpe::Status;
using dpe::core::MeasureKind;
using dpe::engine::Engine;
using dpe::sql::SelectQuery;

namespace {

/// Median over `reps` timed calls of `fn`, in ms.
Result<double> MedianMs(Tracer* tracer, const char* layer,
                        const std::string& name, size_t reps,
                        const std::function<Status()>& fn) {
  std::vector<double> ms;
  for (size_t r = 0; r < reps; ++r) {
    Span s(tracer, layer, name);
    DPE_RETURN_NOT_OK(fn());
    ms.push_back(s.End());
  }
  return Median(ms);
}

uint64_t CounterValue(const char* name) {
  const dpe::obs::MetricsSnapshot snap =
      dpe::obs::MetricsRegistry::Default().Snapshot();
  const dpe::obs::MetricSample* s = snap.Find(name);
  return s != nullptr ? s->counter_value : 0;
}

uint64_t PrefixBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

}  // namespace

Status LayerPass(const Setup& s, const std::string& dir, Tracer* tracer,
                 RunOutput& out) {
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.metrics[name] = Metric{value, unit};
  };
  Checker& check = out.checker;
  const std::vector<SelectQuery>& log = s.batch_log;
  const double n = static_cast<double>(log.size());
  Span root(tracer, "bench", "probes");

  // -- crypto ----------------------------------------------------------------
  DPE_ASSIGN_OR_RETURN(double key_ms,
                       MedianMs(tracer, "crypto", "KeyManager", 21, [&] {
                         dpe::crypto::KeyManager keys(s.master_key);
                         return Status::OK();
                       }));
  put("crypto.key_setup_ms", key_ms, "ms");
  size_t keygen_rep = 0;
  DPE_ASSIGN_OR_RETURN(
      double keygen_ms,
      MedianMs(tracer, "crypto", "paillier::GenerateKeyPair", 3, [&] {
        auto rng = dpe::crypto::Csprng::FromSeed(
            "perfbench-paillier/" + std::to_string(keygen_rep++));
        return dpe::crypto::Paillier::GenerateKeyPair(512, rng).status();
      }));
  put("crypto.paillier_keygen_ms", keygen_ms, "ms");

  // -- core: the owner's encryption of the log, per scheme -------------------
  const dpe::crypto::KeyManager keys(s.master_key);
  std::vector<dpe::core::LogEncryptor> encs;
  std::vector<dpe::core::EncryptionArtifacts> arts;
  for (MeasureKind kind : kAllKinds) {
    Span c(tracer, "core", "LogEncryptor::Create." + Name(kind));
    DPE_ASSIGN_OR_RETURN(
        dpe::core::LogEncryptor enc,
        dpe::core::LogEncryptor::Create(dpe::core::CanonicalScheme(kind), keys,
                                        s.scenario.database, log,
                                        s.scenario.domains, OwnerOptions()));
    put("core.encryptor_create_ms." + Name(kind), c.End(), "ms");
    encs.push_back(std::move(enc));
    Span a(tracer, "core", "EncryptAll." + Name(kind));
    DPE_ASSIGN_OR_RETURN(dpe::core::EncryptionArtifacts art,
                         encs.back().EncryptAll());
    put("core.encrypt_all_ms." + Name(kind), a.End(), "ms");
    arts.push_back(std::move(art));
  }
  {
    Span q(tracer, "core", "EncryptQuery");
    for (const SelectQuery& query : log) {
      DPE_RETURN_NOT_OK(encs[0].EncryptQuery(query).status());
    }
    put("core.encrypt_query_us", q.End() * 1e3 / n, "us");
  }

  // -- cryptdb ---------------------------------------------------------------
  {
    dpe::cryptdb::SchemaMap schemas;
    for (const std::string& rel : s.scenario.database.TableNames()) {
      DPE_ASSIGN_OR_RETURN(const dpe::db::Table* table,
                           s.scenario.database.GetTable(rel));
      schemas[rel] = table->schema();
    }
    DPE_ASSIGN_OR_RETURN(dpe::cryptdb::OnionLayout layout,
                         dpe::core::DeriveOnionLayout(log, schemas));
    layout.shared_value_keys = true;
    dpe::cryptdb::CryptDb::Options options;
    options.crypto.paillier_bits = OwnerOptions().paillier_bits;
    options.crypto.ope_range_bits = OwnerOptions().ope_range_bits;
    Span b(tracer, "cryptdb", "CryptDb::Build");
    DPE_RETURN_NOT_OK(dpe::cryptdb::CryptDb::Build(
                          s.scenario.database, layout, keys, options,
                          dpe::crypto::Csprng::FromSeed(OwnerOptions().rng_seed))
                          .status());
    put("cryptdb.build_ms", b.End(), "ms");
  }
  const size_t result_i = 2;  // kAllKinds order
  {
    const dpe::cryptdb::CryptDb* cdb = encs[result_i].crypt_db();
    if (cdb == nullptr) return Status::Internal("result scheme has no CryptDb");
    Span e(tracer, "cryptdb", "ExecuteEncrypted");
    for (const SelectQuery& q : arts[result_i].encrypted_log) {
      DPE_RETURN_NOT_OK(cdb->ExecuteEncrypted(q).status());
    }
    put("cryptdb.execute_encrypted_ms", e.End(), "ms");
  }

  // -- db, sql, distance: per-query work over the plaintext log --------------
  {
    Span e(tracer, "db", "db::Execute");
    for (const SelectQuery& q : log) {
      DPE_RETURN_NOT_OK(dpe::db::Execute(s.scenario.database, q).status());
    }
    put("db.execute_plain_ms", e.End(), "ms");
  }
  std::vector<std::string> texts;
  {
    Span p(tracer, "sql", "sql::ToSql");
    for (const SelectQuery& q : log) texts.push_back(dpe::sql::ToSql(q));
    put("sql.print_us_per_query", p.End() * 1e3 / n, "us");
  }
  {
    std::vector<SelectQuery> parsed;
    Span p(tracer, "sql", "sql::Parse");
    for (const std::string& text : texts) {
      DPE_ASSIGN_OR_RETURN(SelectQuery q, dpe::sql::Parse(text));
      parsed.push_back(std::move(q));
    }
    put("sql.parse_us_per_query", p.End() * 1e3 / n, "us");
    bool round_trip = true;
    for (size_t i = 0; i < parsed.size(); ++i) {
      round_trip = round_trip && dpe::sql::ToSql(parsed[i]) == texts[i];
    }
    check.Expect(round_trip, "Parse(ToSql(q)) does not print back to ToSql(q)");
  }
  {
    Span f(tracer, "distance", "ExtractRawFeatures");
    for (const SelectQuery& q : log) {
      DPE_RETURN_NOT_OK(dpe::distance::ExtractRawFeatures(q).status());
    }
    put("distance.extract_features_us_per_query", f.End() * 1e3 / n, "us");
  }

  // -- engine: cache-free builder vs the cached cold build, per scheme -------
  const dpe::db::DomainRegistry empty_domains;
  dpe::common::ThreadPool pool(kThreads);
  std::unique_ptr<Engine> token_engine;
  DistanceMatrix token_matrix;
  uint64_t busy_ns = 0;
  double cold_ms_total = 0;
  for (size_t i = 0; i < kAllKinds.size(); ++i) {
    const std::string name = Name(kAllKinds[i]);
    const dpe::distance::MeasureContext ctx =
        ProviderContext(arts[i], empty_domains);
    dpe::engine::MatrixBuilderOptions bo;
    bo.block = PinnedOptions(false).block;
    const dpe::engine::MatrixBuilder builder(&pool, bo);
    auto measure = dpe::core::MakeMeasure(kAllKinds[i]);
    dpe::distance::MeasureContext builder_ctx = ctx;
    builder_ctx.kernel_backend = PinnedOptions(false).kernel_backend;
    Span b(tracer, "engine", "MatrixBuilder::Build." + name);
    DPE_ASSIGN_OR_RETURN(
        DistanceMatrix direct,
        builder.Build(arts[i].encrypted_log, *measure, builder_ctx));
    const double builder_ms = b.End();

    auto engine = std::make_unique<Engine>(ctx, PinnedOptions(false));
    engine->SetLog(arts[i].encrypted_log);
    const uint64_t busy0 = engine->pool().GetStats().busy_ns;
    Span c(tracer, "engine", "BuildMatrix.cold." + name);
    DPE_ASSIGN_OR_RETURN(DistanceMatrix cold, engine->BuildMatrix(name));
    const double cold_ms = c.End();
    busy_ns += engine->pool().GetStats().busy_ns - busy0;
    cold_ms_total += cold_ms;

    put("engine.builder_ms." + name, builder_ms, "ms");
    put("engine.build_cold_ms." + name, cold_ms, "ms");
    put("engine.cache_overhead_ms." + name, cold_ms - builder_ms, "ms");
    check.Expect(SameBits(direct, cold),
                 name + ": MatrixBuilder and Engine matrices differ");
    auto ref = s.batch_ref.find(kAllKinds[i]);
    if (ref != s.batch_ref.end()) {
      check.Expect(SameBits(cold, ref->second),
                   name + ": encrypted matrix differs from plaintext");
    }
    if (i == 0) {
      token_engine = std::move(engine);
      token_matrix = std::move(cold);
    }
  }
  put("common.pool_busy_ratio",
      static_cast<double>(busy_ns) /
          (cold_ms_total * 1e6 * static_cast<double>(kThreads)),
      "ratio");
  {
    Span w(tracer, "engine", "BuildMatrix.warm.token");
    DPE_RETURN_NOT_OK(token_engine->BuildMatrix("token").status());
    put("engine.build_warm_ms", w.End(), "ms");
    const double cells = n * (n - 1) / 2;
    put("engine.cache_bytes_per_cell",
        static_cast<double>(token_engine->cache_bytes_used()) / cells, "B");
  }
  token_engine.reset();

  // -- mining: the miners on the built token matrix --------------------------
  {
    auto km = KMedoidsParams();
    km.pool = &pool;
    Span k(tracer, "mining", "mining::KMedoids");
    DPE_RETURN_NOT_OK(dpe::mining::KMedoids(token_matrix, km).status());
    put("mining.kmedoids_ms", k.End(), "ms");
  }
  {
    auto db = DbscanParams();
    db.pool = &pool;
    Span d(tracer, "mining", "mining::Dbscan");
    DPE_RETURN_NOT_OK(dpe::mining::Dbscan(token_matrix, db).status());
    put("mining.dbscan_ms", d.End(), "ms");
  }
  const auto backend = PinnedOptions(false).kernel_backend;
  {
    Span h(tracer, "mining", "mining::CompleteLink");
    DPE_RETURN_NOT_OK(
        dpe::mining::CompleteLink(token_matrix, &pool, backend).status());
    put("mining.hierarchical_ms", h.End(), "ms");
  }
  {
    auto op = OutlierParams();
    op.pool = &pool;
    Span o(tracer, "mining", "mining::DistanceBasedOutliers");
    DPE_RETURN_NOT_OK(
        dpe::mining::DistanceBasedOutliers(token_matrix, op).status());
    put("mining.outlier_ms", o.End(), "ms");
  }
  {
    Span k(tracer, "mining", "mining::NearestNeighbors");
    for (size_t i = 0; i < token_matrix.size(); ++i) {
      DPE_RETURN_NOT_OK(
          dpe::mining::NearestNeighbors(token_matrix, i, 5, backend).status());
    }
    put("mining.knn_ms", k.End(), "ms");
  }

  // -- engine + store: checkpoint, incremental adds, restore -----------------
  const std::vector<SelectQuery>& enc_token = arts[0].encrypted_log;
  const size_t adds = std::min<size_t>(8, enc_token.size() / 4);
  const std::string ckpt = dir + "/probe-ckpt";
  RemoveTree(ckpt);
  const uint64_t fsyncs0 = CounterValue("store.fsyncs");
  {
    Engine e(dpe::distance::MeasureContext{}, PinnedOptions(false));
    e.SetLog(Prefix(enc_token, enc_token.size() - adds));
    DPE_RETURN_NOT_OK(e.BuildMatrix("token").status());
    {
      Span c(tracer, "engine", "SaveCheckpoint");
      DPE_RETURN_NOT_OK(e.SaveCheckpoint(ckpt));
    }
    std::vector<double> add_us, inc_ms;
    dpe::engine::BuildReport report;
    for (size_t i = enc_token.size() - adds; i < enc_token.size(); ++i) {
      {
        Span a(tracer, "engine", "AddQuery");
        DPE_RETURN_NOT_OK(e.AddQuery(enc_token[i]));
        add_us.push_back(a.End() * 1e3);
      }
      Span b(tracer, "engine", "BuildMatrix.incremental.token");
      DPE_RETURN_NOT_OK(e.BuildMatrix("token", &report).status());
      inc_ms.push_back(b.End());
    }
    put("engine.add_query_us", Median(add_us), "us");
    put("engine.build_incremental_ms", Median(inc_ms), "ms");
    put("engine.cells_computed", static_cast<double>(report.cells_computed),
        "count");
    put("engine.cells_cached", static_cast<double>(report.cells_cached),
        "count");
  }
  put("store.fsyncs", static_cast<double>(CounterValue("store.fsyncs") - fsyncs0),
      "count");
  put("store.snapshot_bytes", static_cast<double>(PrefixBytes(ckpt, "snapshot")),
      "B");
  put("store.journal_bytes", static_cast<double>(PrefixBytes(ckpt, "journal")),
      "B");

  const std::string copy = dir + "/probe-copy";
  DPE_RETURN_NOT_OK(CopyTree(ckpt, copy));
  {
    Engine e(dpe::distance::MeasureContext{}, PinnedOptions(false));
    Span l(tracer, "engine", "LoadCheckpoint");
    DPE_RETURN_NOT_OK(e.LoadCheckpoint(copy));
    put("engine.load_checkpoint_ms", l.End(), "ms");
  }
  DPE_RETURN_NOT_OK(CopyTree(ckpt, copy));
  {
    DPE_ASSIGN_OR_RETURN(dpe::store::MatrixStore store,
                         dpe::store::MatrixStore::OpenExisting(copy));
    store.set_fsync_policy(dpe::store::FsyncPolicy::kOnCheckpoint);
    Span r(tracer, "store", "MatrixStore::ReadSnapshot");
    DPE_ASSIGN_OR_RETURN(auto snapshot, store.ReadSnapshot());
    put("store.snapshot_read_ms", r.End(), "ms");
    Span j(tracer, "store", "MatrixStore::RecoverJournal");
    DPE_ASSIGN_OR_RETURN(auto recovery, store.RecoverJournal());
    put("store.journal_recover_ms", j.End(), "ms");

    const std::string fresh = dir + "/probe-fresh";
    RemoveTree(fresh);
    DPE_ASSIGN_OR_RETURN(dpe::store::MatrixStore out_store,
                         dpe::store::MatrixStore::Open(fresh));
    out_store.set_fsync_policy(dpe::store::FsyncPolicy::kOnCheckpoint);
    {
      Span w(tracer, "store", "MatrixStore::WriteSnapshot");
      DPE_RETURN_NOT_OK(out_store.WriteSnapshot(snapshot));
      put("store.snapshot_write_ms", w.End(), "ms");
    }
    {
      Span a(tracer, "store", "MatrixStore::AppendRecords");
      for (const auto& record : recovery.records) {
        DPE_RETURN_NOT_OK(out_store.AppendRecords({record}));
      }
      put("store.journal_append_us",
          a.End() * 1e3 / static_cast<double>(recovery.records.size()), "us");
    }
    RemoveTree(fresh);
  }
  DPE_RETURN_NOT_OK(CopyTree(ckpt, copy));
  {
    DPE_ASSIGN_OR_RETURN(dpe::store::MatrixStore store,
                         dpe::store::MatrixStore::OpenExisting(copy));
    store.set_fsync_policy(dpe::store::FsyncPolicy::kOnCheckpoint);
    Span c(tracer, "store", "MatrixStore::Begin+Fold+Publish");
    DPE_ASSIGN_OR_RETURN(dpe::store::CompactionPlan plan,
                         store.BeginCompaction());
    DPE_ASSIGN_OR_RETURN(auto folded, store.FoldFrozen(plan));
    DPE_ASSIGN_OR_RETURN(bool published, store.PublishCompaction(plan, folded));
    put("store.compact_ms", c.End(), "ms");
    check.Expect(published, "probe compaction published nothing");
  }
  RemoveTree(copy);
  RemoveTree(ckpt);
  return Status::OK();
}

}  // namespace perfbench
