// The KIT-DPE high-level encryption scheme for SQL query logs:
//
//     (EncRel, EncAttr, {EncA.Const : Attribute A})        (paper §IV-A-2)
//
// A LogEncryptor is configured by a SchemeSpec — which PPE class serves each
// slot — and produces everything the owner ships to the service provider:
// the encrypted log, and (depending on the distance measure) the encrypted
// database (via the CryptDB substrate) or the encrypted domains.
//
// The four canonical Table-I schemes come from CanonicalScheme(measure); the
// Def. 6 appropriate-class search (appropriate.h) explores non-canonical
// SchemeSpecs to discover Table I from first principles.

#ifndef DPE_CORE_LOG_ENCRYPTOR_H_
#define DPE_CORE_LOG_ENCRYPTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cryptdb/encrypted_db.h"
#include "crypto/keys.h"
#include "crypto/ope.h"
#include "crypto/scheme.h"
#include "db/access_area.h"
#include "db/database.h"
#include "distance/measure.h"
#include "sql/ast.h"

namespace dpe::core {

/// The four query-distance measures of Table I.
enum class MeasureKind { kToken, kStructure, kResult, kAccessArea };

/// "token" | "structure" | "result" | "access-area".
const char* MeasureKindName(MeasureKind kind);

/// Factory for the distance-measure implementation of a kind.
std::unique_ptr<distance::QueryDistanceMeasure> MakeMeasure(MeasureKind kind);

/// How constants are encrypted.
enum class ConstMode {
  kUniform,      ///< one PPE class for every constant
  kCryptDb,      ///< per-operator, CryptDB-style (=,IN->DET; range->OPE; agg->HOM)
  kCryptDbNoHom, ///< CryptDB-style but HOM replaced by PROB (access-area row)
};

/// A concrete instantiation of the high-level scheme.
struct SchemeSpec {
  MeasureKind measure = MeasureKind::kToken;
  crypto::PpeClass enc_rel = crypto::PpeClass::kDet;
  crypto::PpeClass enc_attr = crypto::PpeClass::kDet;
  ConstMode const_mode = ConstMode::kUniform;
  crypto::PpeClass uniform_const = crypto::PpeClass::kDet;
  /// Token equivalence needs one shared constant key ({EncA.Const} collapses
  /// to a single function); per-attribute keys otherwise. Ablation A1a flips
  /// this to reproduce the counterexample.
  bool global_const_key = true;

  std::string Describe() const;
};

/// The Table-I scheme for a measure.
SchemeSpec CanonicalScheme(MeasureKind measure);

/// Everything the owner hands to the provider.
struct EncryptionArtifacts {
  std::vector<sql::SelectQuery> encrypted_log;
  /// Result measure: the onion-encrypted database.
  std::optional<db::Database> encrypted_db;
  /// Result measure: provider-side execution options (Paillier public key).
  db::ExecuteOptions provider_options;
  /// Access-area measure: order-preserving encrypted domains keyed by
  /// encrypted column names.
  std::optional<db::DomainRegistry> encrypted_domains;
};

class LogEncryptor {
 public:
  struct Options {
    int paillier_bits = 512;       ///< >= 1024 for real deployments
    int ope_range_bits = 96;
    std::string rng_seed;          ///< deterministic when non-empty
  };

  /// Builds an encryptor for `spec`. `plain_db` supplies schemas (and, for
  /// the result measure, content); `log` drives the onion-layout / constant
  /// class derivation; `domains` are the shared domains. References must
  /// outlive the encryptor.
  static Result<LogEncryptor> Create(const SchemeSpec& spec,
                                     const crypto::KeyManager& keys,
                                     const db::Database& plain_db,
                                     const std::vector<sql::SelectQuery>& log,
                                     const db::DomainRegistry& domains,
                                     const Options& options);

  const SchemeSpec& spec() const { return spec_; }

  /// EncRel / EncAttr as exposed functions (for equivalence checkers).
  Result<std::string> EncryptRelName(const std::string& name) const;
  Result<std::string> EncryptAttrName(const std::string& name) const;

  /// Deterministic constant encryption for `column_key` ("rel.attr"); only
  /// valid for DET/OPE-class constants (checkers need it; PROB has no
  /// deterministic image). The literal must already be column-typed.
  Result<sql::Literal> EncryptConstant(const std::string& column_key,
                                       const sql::Literal& literal) const;

  /// The PPE class encrypting the constants of `column_key` under this
  /// scheme (Table I's EncA.Const column, concretely).
  Result<crypto::PpeClass> ConstClassFor(const std::string& column_key) const;

  /// Encrypts one query.
  Result<sql::SelectQuery> EncryptQuery(const sql::SelectQuery& query) const;

  /// Encrypts the whole log plus the measure's shared information.
  Result<EncryptionArtifacts> EncryptAll() const;

  /// Result measure only: the underlying CryptDB instance (owner side).
  const cryptdb::CryptDb* crypt_db() const { return crypt_db_.get(); }

  /// Executes a plaintext query on the owner's plaintext database.
  Result<db::ResultTable> ExecutePlain(const sql::SelectQuery& query) const {
    return db::Execute(*plain_db_, query);
  }

  /// Plaintext schema catalog.
  const cryptdb::SchemaMap& schemas() const { return schemas_; }

  /// Per-attribute constant classes (composite modes; empty for uniform).
  const std::map<std::string, crypto::PpeClass>& const_classes() const {
    return const_class_;
  }

  /// Security profile of this scheme over the slots it actually uses
  /// (EncRel, EncAttr, and one slot per attribute with constants).
  class SecurityProfileReport;

 private:
  friend class LogEncryptorAccess;  // test backdoor

  LogEncryptor() = default;

  Result<sql::PredicatePtr> EncryptPredicate(
      const sql::Predicate& p, const sql::QueryScope& scope) const;
  Result<sql::Literal> EncryptConstantForQuery(const sql::ColumnRef& c,
                                               const sql::QueryScope& scope,
                                               const sql::Literal& lit) const;
  Result<sql::ColumnRef> EncryptColumnRef(const sql::ColumnRef& c) const;

  SchemeSpec spec_;
  const crypto::KeyManager* keys_ = nullptr;
  const db::Database* plain_db_ = nullptr;
  const std::vector<sql::SelectQuery>* log_ = nullptr;
  const db::DomainRegistry* domains_ = nullptr;
  Options options_;

  cryptdb::SchemaMap schemas_;
  /// Per-attribute constant class (derived from the log for composite modes).
  std::map<std::string, crypto::PpeClass> const_class_;
  /// Result measure: full CryptDB instance.
  std::shared_ptr<cryptdb::CryptDb> crypt_db_;
  /// Fresh randomness for PROB constants.
  mutable std::optional<crypto::Csprng> prob_rng_;
};

/// Derives the CryptDB onion layout a log needs (which onions per column,
/// join groups from equi-join predicates). The composite constant modes read
/// their per-attribute classes off it. Exposed for tests and benches.
Result<cryptdb::OnionLayout> DeriveOnionLayout(
    const std::vector<sql::SelectQuery>& log, const cryptdb::SchemaMap& schemas);

}  // namespace dpe::core

#endif  // DPE_CORE_LOG_ENCRYPTOR_H_
