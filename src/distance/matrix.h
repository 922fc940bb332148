// Pairwise distance matrices: the interface between the distance layer and
// the distance-based mining algorithms.

#ifndef DPE_DISTANCE_MATRIX_H_
#define DPE_DISTANCE_MATRIX_H_

#include <cassert>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

/// Symmetric n x n matrix with zero diagonal.
///
/// `AtUnchecked`/`SetUnchecked` are the unchecked hot-path accessors
/// (debug-asserted only) for the mining/builder inner loops, whose indices
/// are loop-bounded by construction; `at`/`set` are their general-purpose
/// aliases, and `At`/`Set` are the bounds-checked variants for callers
/// handling untrusted indices.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(size_t n) : n_(n), cells_(n * n, 0.0) {}

  size_t size() const { return n_; }

  /// Unchecked read for hot loops; i and j must be < size().
  double AtUnchecked(size_t i, size_t j) const {
    assert(i < n_ && j < n_ && "DistanceMatrix::AtUnchecked out of range");
    return cells_[i * n_ + j];
  }
  /// Unchecked symmetric write for hot loops; i and j must be < size().
  void SetUnchecked(size_t i, size_t j, double d) {
    assert(i < n_ && j < n_ && "DistanceMatrix::SetUnchecked out of range");
    cells_[i * n_ + j] = d;
    cells_[j * n_ + i] = d;
  }

  /// Contiguous row i (n doubles) — the input the SIMD min/max row kernels
  /// (kNN selection, complete-link scoring) consume. i must be < size().
  const double* RowUnchecked(size_t i) const {
    assert(i < n_ && "DistanceMatrix::RowUnchecked out of range");
    return cells_.data() + i * n_;
  }

  double at(size_t i, size_t j) const { return AtUnchecked(i, j); }
  void set(size_t i, size_t j, double d) { SetUnchecked(i, j, d); }

  /// Bounds-checked read.
  Result<double> At(size_t i, size_t j) const;
  /// Bounds-checked symmetric write.
  Status Set(size_t i, size_t j, double d);

  /// Max |a - b| over all cells; matrices must have equal size.
  static Result<double> MaxAbsDifference(const DistanceMatrix& a,
                                         const DistanceMatrix& b);

  /// Computes all pairwise distances of `queries` under `measure`, serially.
  /// This is the reference implementation the engine's parallel builder is
  /// tested bit-identical against.
  static Result<DistanceMatrix> Compute(
      const std::vector<sql::SelectQuery>& queries,
      const QueryDistanceMeasure& measure, const MeasureContext& context);

 private:
  size_t n_ = 0;
  std::vector<double> cells_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MATRIX_H_
