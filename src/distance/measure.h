// The query-distance-measure interface (Table I rows).
//
// A measure computes d(Q1, Q2) given the shared information its row of
// Table I requires: the log itself (always), the database content (result
// distance) and/or the attribute domains (access-area distance). The same
// implementations run on plaintext and on ciphertext: on the encrypted side
// the context simply carries the encrypted database / encrypted domains and
// the provider-side execution options.

#ifndef DPE_DISTANCE_MEASURE_H_
#define DPE_DISTANCE_MEASURE_H_

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
  /// Precomputed per-query features (distance/features.h), set by the
  /// engine's MatrixBuilder for the duration of one build. Optional: with
  /// it the log-only measures skip re-printing/re-lexing SQL per pair;
  /// without it (or for queries outside the cache) every measure falls back
  /// to extraction on the fly, bit-identically.
  const FeatureCache* features = nullptr;
  /// Which backend the Jaccard measures' set intersection dispatches to
  /// (common/simd.h). kAuto resolves env + CPU detection; an explicit value
  /// (from EngineOptions::kernel_backend, or forced by tests) pins the
  /// backend. Every backend returns the exact count, so this knob can only
  /// change speed, never distances — a tested property.
  common::simd::KernelBackend kernel_backend =
      common::simd::KernelBackend::kAuto;
};

class QueryDistanceMeasure {
 public:
  virtual ~QueryDistanceMeasure() = default;

  /// Stable identifier ("token", "structure", "result", "access-area").
  virtual std::string Name() const = 0;

  /// Which Table-I shared information this measure needs.
  virtual SharedInformation Shared() const = 0;

  /// Optional per-log precomputation before many Distance calls (e.g. the
  /// result measure executes each query once here instead of lazily).
  /// Called single-threaded. Contract: after a successful Prepare over
  /// `queries`, Distance must be safe to call concurrently for pairs drawn
  /// from `queries` — the engine's parallel matrix builder relies on this.
  virtual Status Prepare(std::span<const sql::SelectQuery> queries,
                         const MeasureContext& context) const {
    (void)queries;
    (void)context;
    return Status::OK();
  }

  /// d(q1, q2) in [0, 1].
  virtual Result<double> Distance(const sql::SelectQuery& q1,
                                  const sql::SelectQuery& q2,
                                  const MeasureContext& context) const = 0;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MEASURE_H_
