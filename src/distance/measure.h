// The query-distance-measure interface (Table I rows).
//
// A measure computes d(Q1, Q2) given the shared information its row of
// Table I requires: the log itself (always), the database content (result
// distance) and/or the attribute domains (access-area distance). The same
// implementations run on plaintext and on ciphertext: on the encrypted side
// the context simply carries the encrypted database / encrypted domains and
// the provider-side execution options.
//
// Prepare turns one log into a PreparedLog that answers Distance(i, j) by
// log index and cannot fail; the matrix builders run it. Distance(q1, q2,
// context) is the per-pair reference the property tests hold it to, bit for
// bit. A measure keeps no state between calls.

#ifndef DPE_DISTANCE_MEASURE_H_
#define DPE_DISTANCE_MEASURE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "db/access_area.h"
#include "db/database.h"
#include "db/executor.h"
#include "sql/ast.h"

namespace dpe::distance {

/// What must be shared with the service provider (Table I columns 2-4).
struct SharedInformation {
  bool log = true;
  bool db_content = false;
  bool domains = false;
};

class FeatureCache;

/// Context supplying the shared information to a measure.
struct MeasureContext {
  /// Database to execute queries against (result distance).
  const db::Database* database = nullptr;
  /// Execution options (encrypted side: the Paillier aggregate hook).
  const db::ExecuteOptions* exec_options = nullptr;
  /// Attribute domains (access-area distance).
  const db::DomainRegistry* domains = nullptr;
  /// Which backend the Jaccard measures' set intersection dispatches to
  /// (common/simd.h). kAuto resolves env + CPU detection; an explicit value
  /// (from EngineOptions::kernel_backend, or forced by tests) pins the
  /// backend. Every backend returns the exact count, so this knob can only
  /// change speed, never distances — a tested property.
  common::simd::KernelBackend kernel_backend =
      common::simd::KernelBackend::kAuto;
};

/// A measure's distances over one prepared log, by log index. Immutable, so
/// any number of threads may call Distance at once. It may view the
/// FeatureCache it was prepared from, which must outlive it.
class PreparedLog {
 public:
  PreparedLog() = default;
  PreparedLog(const PreparedLog&) = delete;
  PreparedLog& operator=(const PreparedLog&) = delete;
  virtual ~PreparedLog() = default;

  /// d(queries[i], queries[j]), bit-identical to the reference path; i and
  /// j must be below the prepared log's size.
  virtual double Distance(size_t i, size_t j) const = 0;
};

class QueryDistanceMeasure {
 public:
  virtual ~QueryDistanceMeasure() = default;

  /// Stable identifier ("token", "structure", "result", "access-area").
  virtual std::string Name() const = 0;

  /// Which Table-I shared information this measure needs.
  virtual SharedInformation Shared() const = 0;

  /// Prepares `queries`, whose features are features[0, queries.size()).
  /// Every error the reference path could raise for these queries (missing
  /// shared information, a query that fails to execute) surfaces here.
  virtual Result<std::unique_ptr<PreparedLog>> Prepare(
      std::span<const sql::SelectQuery> queries, const FeatureCache& features,
      const MeasureContext& context) const = 0;

  /// Reference d(q1, q2) in [0, 1], computed from the two queries alone.
  virtual Result<double> Distance(const sql::SelectQuery& q1,
                                  const sql::SelectQuery& q2,
                                  const MeasureContext& context) const = 0;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MEASURE_H_
