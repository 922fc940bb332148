// Pairwise distance matrices: the interface between the distance layer and
// the distance-based mining algorithms, plus the one stored form of a
// measure's distances (DistanceTriangle).

#ifndef DPE_DISTANCE_MATRIX_H_
#define DPE_DISTANCE_MATRIX_H_

#include <cassert>
#include <span>
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

  /// Contiguous row i (n doubles), for readers that scan a whole row in
  /// place (kNN selection, complete link, triangle copies). i must be
  /// < size().
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

  /// Max |a - b| over all cells; matrices must have equal size. Cells with
  /// identical bits differ by 0 (+inf against +inf included). A NaN against
  /// any other value makes the result NaN, so `== 0.0` never passes it.
  /// -0.0 against +0.0 differs by 0; only a bit comparison tells them apart.
  static Result<double> MaxAbsDifference(const DistanceMatrix& a,
                                         const DistanceMatrix& b);

  /// Computes all pairwise distances of `queries` under `measure`, serially,
  /// through measure.Prepare. The engine's parallel builder is tested
  /// bit-identical against it.
  static Result<DistanceMatrix> Compute(
      const std::vector<sql::SelectQuery>& queries,
      const QueryDistanceMeasure& measure, const MeasureContext& context);

 private:
  friend class DistanceTriangle;  // CopyRows writes whole rows at once

  size_t n_ = 0;
  std::vector<double> cells_;
};

/// Row-growable lower triangle of a symmetric distance matrix: row r holds
/// d(c, r) for every c < r, and rows [0, rows()) are complete. The engine's
/// per-measure cache, a snapshot's per-measure payload and a journal row
/// record all carry exactly these rows, so a warm build is a copy and save,
/// load and fold move raw doubles. Every row lives in one vector: row r
/// starts at offset r(r-1)/2, and row 0 has no cells.
class DistanceTriangle {
 public:
  /// Cells held by the first `rows` rows: rows(rows-1)/2.
  static size_t CellCount(size_t rows) {
    return rows < 2 ? 0 : rows * (rows - 1) / 2;
  }

  size_t rows() const { return rows_; }
  size_t cells() const { return cells_.size(); }
  /// Real bytes held: 8 per cell.
  size_t bytes() const { return cells_.size() * sizeof(double); }

  /// Rows [first, end) as one contiguous run of cells; end must be <= rows().
  std::span<const double> Rows(size_t first, size_t end) const {
    assert(first <= end && end <= rows_ && "DistanceTriangle::Rows range");
    return {cells_.data() + CellCount(first),
            CellCount(end) - CellCount(first)};
  }
  /// Row r: d(c, r) for c < r. r must be < rows().
  std::span<const double> Row(size_t r) const { return Rows(r, r + 1); }

  /// Appends row rows(); InvalidArgument unless row.size() == rows().
  Status AppendRow(std::span<const double> row);
  /// Appends rows [rows(), m.size()) of `m`, one memcpy per row: the matrix
  /// is row-major and symmetric, so triangle row r is the first r doubles
  /// of m.RowUnchecked(r). No-op when `m` has no rows beyond rows().
  void ExtendFrom(const DistanceMatrix& m);
  /// Allocates room for `rows` rows up front (a decoder that knows the
  /// final size appends without reallocating).
  void Reserve(size_t rows) { cells_.reserve(CellCount(rows)); }
  /// Writes triangle rows [first, end) into `m`, both halves. `cells` holds
  /// exactly those rows, laid out as Rows(first, end) returns them (a shard
  /// file carries the same run); end must be <= m->size().
  static void CopyRows(std::span<const double> cells, size_t first,
                       size_t end, DistanceMatrix* m);

  bool operator==(const DistanceTriangle&) const = default;

 private:
  size_t rows_ = 0;
  std::vector<double> cells_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MATRIX_H_
