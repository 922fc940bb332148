// Plain-AST -> encrypted-AST query rewriting (the CryptDB proxy's job).
//
// Identifier mapping: relations/attributes via DET name encryption; each
// column reference additionally picks the onion its operator class needs:
//
//   =, <>, IN, GROUP BY, projection          -> <attr>__eq   (DET constants)
//   <, <=, >, >=, BETWEEN, ORDER BY, MIN/MAX -> <attr>__ord  (OPE constants)
//   SUM, AVG                                 -> <attr>__add  (Paillier)
//   projection of a RND-only column          -> <attr>__rnd
//
// Constants are coerced to the plaintext column type first (int literal 5
// against a DOUBLE column encrypts as 5.0), so encrypted equality matches
// exactly where plaintext SQL equality matched.

#ifndef DPE_CRYPTDB_REWRITER_H_
#define DPE_CRYPTDB_REWRITER_H_

#include <string>

#include "cryptdb/onion.h"
#include "db/schema.h"
#include "sql/ast.h"

namespace dpe::cryptdb {

/// Plaintext schema catalog the rewriter consults for types/star expansion.
using SchemaMap = db::SchemaMap;

class QueryRewriter {
 public:
  QueryRewriter(const OnionCrypto* crypto, const SchemaMap* schemas)
      : crypto_(crypto), schemas_(schemas) {}

  /// Rewrites a plaintext query for execution over the encrypted database.
  Result<sql::SelectQuery> Rewrite(const sql::SelectQuery& query) const;

 private:
  Result<sql::ColumnRef> RewriteColumn(const sql::ColumnRef& c,
                                       const char* onion_suffix,
                                       const sql::QueryScope& scope) const;
  Result<sql::PredicatePtr> RewritePredicate(
      const sql::Predicate& p, const sql::QueryScope& scope) const;
  Result<sql::Literal> EncryptConstEq(const std::string& column_key,
                                      db::ColumnType type,
                                      const sql::Literal& lit) const;
  Result<sql::Literal> EncryptConstOrd(const std::string& column_key,
                                       db::ColumnType type,
                                       const sql::Literal& lit) const;

  const OnionCrypto* crypto_;
  const SchemaMap* schemas_;
};

/// Coerces a literal to a column type (int -> double widening only).
Result<sql::Literal> CoerceLiteral(db::ColumnType type, const sql::Literal& lit);

}  // namespace dpe::cryptdb

#endif  // DPE_CRYPTDB_REWRITER_H_
