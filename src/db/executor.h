// SELECT executor over the in-memory database.
//
// Pipeline: FROM/JOIN (hash equi-join) -> WHERE filter -> GROUP BY /
// aggregation -> DISTINCT -> ORDER BY -> LIMIT -> projection.
//
// The executor is crypto-agnostic. Encrypted execution (CryptDB mode)
// plugs in through ExecuteOptions::agg_hook: when set, it is offered every
// (aggregate, column, group values) triple first — the cryptdb layer uses
// this to fold SUM/AVG over Paillier ADD-onion ciphertexts.

#ifndef DPE_DB_EXECUTOR_H_
#define DPE_DB_EXECUTOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/expr_eval.h"
#include "sql/ast.h"

namespace dpe::db {

/// Hook consulted for each aggregate computation. Return a Value to override
/// the default semantics, std::nullopt to fall through.
using AggregateHook = std::function<std::optional<Value>(
    sql::AggFn fn, const std::string& column_name,
    const std::vector<Value>& group_values)>;

struct ExecuteOptions {
  AggregateHook agg_hook;
};

/// What kind of expression produced an output column. Tuple-set comparisons
/// are kind-aware: a COUNT scalar never equals a projected attribute value,
/// even when the numbers coincide. This is forced by the encrypted setting —
/// the provider computes counts in the clear and cannot map them into the
/// DET value space — and is applied identically on the plaintext side so
/// that the measure is the same function on both sides
/// (CounterexampleTest.CountNeverMatchesProjectedValues).
enum class OutputKind : char {
  kPlain = 'p',   ///< projected attribute value
  kCount = 'c',   ///< COUNT(...) result
  kSum = 's',     ///< SUM(...) result
  kAvg = 'a',     ///< AVG(...) result
  kMinMax = 'm',  ///< MIN/MAX(...) result
};

/// Query result: output column names/kinds plus rows, with set-semantics
/// helpers for the result-distance measure.
struct ResultTable {
  std::vector<std::string> column_names;
  /// One kind per output column; when empty, kPlain is assumed throughout.
  std::vector<OutputKind> column_kinds;
  std::vector<Row> rows;

  /// Distinct kind-aware row keys (the paper's result_tuples(Q) as a set).
  std::set<std::string> TupleKeySet() const;
};

/// Executes `query` against `db`.
Result<ResultTable> Execute(const Database& db, const sql::SelectQuery& query);
Result<ResultTable> Execute(const Database& db, const sql::SelectQuery& query,
                            const ExecuteOptions& options);

}  // namespace dpe::db

#endif  // DPE_DB_EXECUTOR_H_
