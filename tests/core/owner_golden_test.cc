// Pins every byte the owner emits: for each Table-I scheme, on the shop and
// SkyServer scenarios, the SHA-256 of what EncryptAll hands the provider
// (each encrypted query's SQL text, every onion-table row, the encrypted
// domains) plus the per-attribute constant classes. The first encrypted
// query is pinned as text too, so a failure can be read. A refactor of
// column resolution or a faster OPE must leave all of it unchanged.

#include <gtest/gtest.h>

#include <string>

#include "core/log_encryptor.h"
#include "crypto/sha256.h"
#include "sql/printer.h"
#include "workload/scenarios.h"

namespace dpe::core {
namespace {

struct OwnerGolden {
  const char* scenario;  ///< "shop" | "skyserver"
  MeasureKind measure;
  const char* sha256;
  const char* first_query;
};

constexpr OwnerGolden kGoldens[] = {
    {"shop", MeasureKind::kToken,
     "db3e4e0f22eea731741f0c553c38eb4569ed4ed87dfcdabdd9ed0a60d3864767",
     "SELECT e99c0f17c503d4c658a95f92bcd30d0689307df9981566e5f,"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 FROM"
     " eff21417c8f161dfcba9f51badea94f7bb531b9d12f715127 WHERE"
     " e9e32de854fd84c630f5c3bcb8f6c9e614e384c = 7402871694928870051 AND"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 BETWEEN"
     " 8920011677508425589 AND 8920011677508425589"},
    {"shop", MeasureKind::kStructure,
     "a21948612b524d48e5322d6b8b34a85f78405f8fc71dc7ad7c6f743317999392",
     "SELECT e99c0f17c503d4c658a95f92bcd30d0689307df9981566e5f,"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 FROM"
     " eff21417c8f161dfcba9f51badea94f7bb531b9d12f715127 WHERE"
     " e9e32de854fd84c630f5c3bcb8f6c9e614e384c ="
     " 'p88be65213e41b46f6a46064e43bff3ab0a324a4b' AND"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 BETWEEN"
     " 'p49464a48d19420a69e1646f4baadb76a59cc41a00a' AND"
     " 'pea91ca25e94d0ca6aef848ac94251a57f38e46b213'"},
    {"shop", MeasureKind::kResult,
     "70a88546396194ce3bd7c4bf0084c3e53d7c6c29ce242ce18bb22070dd5e3afc",
     "SELECT e99c0f17c503d4c658a95f92bcd30d0689307df9981566e5f__eq,"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2__eq FROM"
     " eff21417c8f161dfcba9f51badea94f7bb531b9d12f715127 WHERE"
     " e9e32de854fd84c630f5c3bcb8f6c9e614e384c__eq ="
     " 'ea57ccedbb155db541dd6b818a493e170625fd183' AND"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2__ord BETWEEN"
     " 'oi3ccd059d087ec9b7b7f7e342' AND 'oi3ccd059d087ec9b7b7f7e342'"},
    {"shop", MeasureKind::kAccessArea,
     "3dc8b81fe1ad7143fbcd3b6c7e801e9423a4ac23e1d7d7ce8839b5d97a88fc99",
     "SELECT e99c0f17c503d4c658a95f92bcd30d0689307df9981566e5f,"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 FROM"
     " eff21417c8f161dfcba9f51badea94f7bb531b9d12f715127 WHERE"
     " e9e32de854fd84c630f5c3bcb8f6c9e614e384c ="
     " 'e7b968a338022fc61444b045f0eb71c8161645f61' AND"
     " e75aa354df6200d61ac0c79cd315de4d90b3dcc7fb2 BETWEEN"
     " 'oeaa2ce62dacc75de80d7504c' AND 'oeaa2ce62dacc75de80d7504c'"},
    {"skyserver", MeasureKind::kToken,
     "ed92fc648d3ad2001021b6b39ac928f63b17ab23c21481f9ae04ba917b946d3f",
     "SELECT e205b41ad067286d11924ee6872ebedd29875c5de12,"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 FROM"
     " e4e9a28b85d592359eac1c442b4e9084ca4dbfcd0c102ac WHERE"
     " e205b41ad067286d11924ee6872ebedd29875c5de12 = 7499137447802661395 AND"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 <"
     " 0.41221194256588056"},
    {"skyserver", MeasureKind::kStructure,
     "9a2fadb14e5fe2ba87fef01706311b54877a756c18f09e343be89558c37dd4d7",
     "SELECT e205b41ad067286d11924ee6872ebedd29875c5de12,"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 FROM"
     " e4e9a28b85d592359eac1c442b4e9084ca4dbfcd0c102ac WHERE"
     " e205b41ad067286d11924ee6872ebedd29875c5de12 ="
     " 'p88be65213e41b46f6a46064e43bff3ab5216ffc14b7b87' AND"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 <"
     " 'p49464a48d19420a69e1646f4baadb76a05616b225820'"},
    {"skyserver", MeasureKind::kResult,
     "c7a6791aeabd7656c43d5b8c062017cd260c73bd194578745ae8919619757dfd",
     "SELECT e205b41ad067286d11924ee6872ebedd29875c5de12__eq,"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9__eq FROM"
     " e4e9a28b85d592359eac1c442b4e9084ca4dbfcd0c102ac WHERE"
     " e205b41ad067286d11924ee6872ebedd29875c5de12__eq ="
     " 'ed860fe03e5a8db2673bdd8612962e466cfaf49ee6195f5' AND"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9__ord <"
     " 'od9a4d6060be5e443c8d1c062f'"},
    {"skyserver", MeasureKind::kAccessArea,
     "ab2c2831065ba468b842d47a64b044c86dbfa133d82ac627dffa8827b272d1f1",
     "SELECT e205b41ad067286d11924ee6872ebedd29875c5de12,"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 FROM"
     " e4e9a28b85d592359eac1c442b4e9084ca4dbfcd0c102ac WHERE"
     " e205b41ad067286d11924ee6872ebedd29875c5de12 ="
     " 'e4e5f8aa4e1307d33807b3ae3703dc0714b3d04e57b3d4f' AND"
     " eaf8aea2fce53079201000a7c2df20bca993c8bf69b439ce9 <"
     " 'o6a9f2119ccc71a6eba0845f2'"},
};

const workload::Scenario& ScenarioNamed(const std::string& name) {
  static const workload::Scenario shop = [] {
    workload::ScenarioOptions opt;
    opt.seed = 42;
    opt.rows_per_relation = 20;
    opt.log_size = 40;
    return workload::MakeShopScenario(opt).value();
  }();
  static const workload::Scenario skyserver = [] {
    workload::ScenarioOptions opt;
    opt.seed = 42;
    opt.rows_per_relation = 20;
    opt.log_size = 40;
    return workload::MakeSkyServerScenario(opt).value();
  }();
  return name == "shop" ? shop : skyserver;
}

/// SHA-256 over everything the owner ships for one scheme, one record per
/// line, each tagged by what it is.
std::string ArtifactDigest(const LogEncryptor& enc,
                           const EncryptionArtifacts& artifacts) {
  crypto::Sha256 h;
  auto record = [&](std::string_view tag, const std::string& body) {
    h.Update(tag);
    h.Update(" ");
    h.Update(body);
    h.Update("\n");
  };
  for (const sql::SelectQuery& q : artifacts.encrypted_log) {
    record("query", sql::ToSql(q));
  }
  if (artifacts.encrypted_db.has_value()) {
    const db::Database& edb = *artifacts.encrypted_db;
    for (const std::string& name : edb.TableNames()) {
      const db::Table* table = edb.GetTable(name).value();
      std::string columns;
      for (const db::ColumnDef& c : table->schema().columns()) {
        columns += c.name + ":" + db::ColumnTypeName(c.type) + ",";
      }
      record("table", name + " " + columns);
      for (const db::Row& row : table->rows()) {
        std::string cells;
        for (const db::Value& v : row) cells += v.KeyBytes() + "|";
        record("row", cells);
      }
    }
  }
  if (artifacts.encrypted_domains.has_value()) {
    for (const auto& [key, domain] : artifacts.encrypted_domains->all()) {
      record("domain",
             key + " " + domain.min.KeyBytes() + " " + domain.max.KeyBytes());
    }
  }
  for (const auto& [key, cls] : enc.const_classes()) {
    record("class", key + "=" + crypto::PpeClassName(cls));
  }
  return HexEncode(h.Finish());
}

TEST(OwnerGoldenTest, EncryptAllIsByteIdenticalForEveryScheme) {
  const crypto::KeyManager keys("owner-golden/master");
  LogEncryptor::Options options;
  options.paillier_bits = 512;
  options.ope_range_bits = 96;
  options.rng_seed = "owner-golden";
  for (const OwnerGolden& g : kGoldens) {
    const workload::Scenario& s = ScenarioNamed(g.scenario);
    SCOPED_TRACE(std::string(g.scenario) + " / " + MeasureKindName(g.measure));
    Result<LogEncryptor> enc =
        LogEncryptor::Create(CanonicalScheme(g.measure), keys, s.database,
                             s.log, s.domains, options);
    ASSERT_TRUE(enc.ok()) << enc.status();
    Result<EncryptionArtifacts> artifacts = enc->EncryptAll();
    ASSERT_TRUE(artifacts.ok()) << artifacts.status();
    ASSERT_FALSE(artifacts->encrypted_log.empty());
    EXPECT_EQ(sql::ToSql(artifacts->encrypted_log.front()), g.first_query);
    EXPECT_EQ(ArtifactDigest(*enc, *artifacts), g.sha256);
  }
}

}  // namespace
}  // namespace dpe::core
