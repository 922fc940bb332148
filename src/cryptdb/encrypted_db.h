// CryptDb: the owner-side facade over the whole CryptDB substrate.
//
//   owner   : Build(plain_db, layout)  ->  encrypted database + keys
//   owner   : Rewrite(plain query)     ->  encrypted query
//   provider: ExecuteEncrypted(enc q)  ->  encrypted result (Paillier hook)
//   owner   : DecryptResult(...)       ->  plaintext result
//
// The provider only ever sees the encrypted database, encrypted queries and
// the Paillier *public* key (inside the aggregate hook).

#ifndef DPE_CRYPTDB_ENCRYPTED_DB_H_
#define DPE_CRYPTDB_ENCRYPTED_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "cryptdb/onion.h"
#include "cryptdb/rewriter.h"
#include "db/access_area.h"
#include "db/database.h"
#include "db/executor.h"

namespace dpe::cryptdb {

/// One output column of a plaintext query, with SELECT * expanded: the
/// aggregate applied (kNone for a projection) and the attribute it reads.
/// COUNT(*) reads none.
struct OutputColumn {
  sql::AggFn agg = sql::AggFn::kNone;
  bool count_star = false;
  std::string relation;
  std::string attribute;
  db::ColumnType type = db::ColumnType::kString;

  /// "rel.attr" of the attribute read.
  std::string ColumnKey() const { return relation + "." + attribute; }
};

/// The output columns of `query` under the plaintext catalog, in output
/// order; SELECT * expands every relation in scope. A qualified column is
/// looked up in its qualifier's relation, an unqualified one in the first
/// relation in scope that has it. ExecutionError when none has it.
Result<std::vector<OutputColumn>> PlanOutput(const sql::SelectQuery& query,
                                             const SchemaMap& schemas);

class CryptDb {
 public:
  struct Options {
    OnionCrypto::Options crypto;
  };

  /// Encrypts `plain` under `layout`. `keys` must outlive the CryptDb.
  static Result<CryptDb> Build(const db::Database& plain,
                               const OnionLayout& layout,
                               const crypto::KeyManager& keys,
                               const Options& options, crypto::Csprng rng);

  /// The encrypted database (what the service provider stores).
  const db::Database& encrypted() const { return encrypted_; }

  const OnionCrypto& onion_crypto() const { return *crypto_; }

  /// Owner-side: plaintext query -> encrypted query.
  Result<sql::SelectQuery> Rewrite(const sql::SelectQuery& query) const;

  /// Provider-side execution options (Paillier SUM/AVG hook; public key only).
  db::ExecuteOptions ProviderOptions() const;

  /// Convenience: run an encrypted query on the encrypted database.
  Result<db::ResultTable> ExecuteEncrypted(const sql::SelectQuery& enc_query) const;

  /// Owner-side: decrypt an encrypted result. `plain_query` supplies the
  /// column/key mapping (the proxy keeps the original query, as in CryptDB).
  Result<db::ResultTable> DecryptResult(const sql::SelectQuery& plain_query,
                                        const db::ResultTable& enc_result) const;

 private:
  CryptDb(std::unique_ptr<OnionCrypto> crypto, db::Database encrypted,
          SchemaMap schemas)
      : crypto_(std::move(crypto)),
        encrypted_(std::move(encrypted)),
        schemas_(std::move(schemas)) {}

  std::unique_ptr<OnionCrypto> crypto_;
  db::Database encrypted_;
  SchemaMap schemas_;  // plaintext schemas (owner side)
};

}  // namespace dpe::cryptdb

#endif  // DPE_CRYPTDB_ENCRYPTED_DB_H_
