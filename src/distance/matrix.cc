#include "distance/matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "distance/features.h"

namespace dpe::distance {

namespace {

Status IndexError(const char* what, size_t i, size_t j, size_t n) {
  return Status::OutOfRange(std::string(what) + ": (" + std::to_string(i) +
                            ", " + std::to_string(j) + ") outside " +
                            std::to_string(n) + " x " + std::to_string(n) +
                            " matrix");
}

}  // namespace

Result<double> DistanceMatrix::At(size_t i, size_t j) const {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::At", i, j, n_);
  return cells_[i * n_ + j];
}

Status DistanceMatrix::Set(size_t i, size_t j, double d) {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::Set", i, j, n_);
  cells_[i * n_ + j] = d;
  cells_[j * n_ + i] = d;
  return Status::OK();
}

Result<double> DistanceMatrix::MaxAbsDifference(const DistanceMatrix& a,
                                                const DistanceMatrix& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("matrix size mismatch");
  }
  double max_diff = 0.0;
  for (size_t i = 0; i < a.cells_.size(); ++i) {
    const double x = a.cells_[i], y = b.cells_[i];
    if (std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y)) continue;
    const double diff = std::fabs(x - y);
    // std::max would drop a NaN and report the cell as equal.
    if (std::isnan(diff)) return std::numeric_limits<double>::quiet_NaN();
    max_diff = std::max(max_diff, diff);
  }
  return max_diff;
}

Result<DistanceMatrix> DistanceMatrix::Compute(
    const std::vector<sql::SelectQuery>& queries,
    const QueryDistanceMeasure& measure, const MeasureContext& context) {
  DPE_ASSIGN_OR_RETURN(FeatureCache features, FeatureCache::Compute(queries));
  DPE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedLog> prepared,
                       measure.Prepare(queries, features, context));
  DistanceMatrix m(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      m.set(i, j, prepared->Distance(i, j));
    }
  }
  return m;
}

Status DistanceTriangle::AppendRow(std::span<const double> row) {
  if (row.size() != rows_) {
    return Status::InvalidArgument(
        "DistanceTriangle::AppendRow: row " + std::to_string(rows_) +
        " needs " + std::to_string(rows_) + " cells, got " +
        std::to_string(row.size()));
  }
  cells_.insert(cells_.end(), row.begin(), row.end());
  ++rows_;
  return Status::OK();
}

void DistanceTriangle::ExtendFrom(const DistanceMatrix& m) {
  if (m.size() <= rows_) return;
  // Exact on a first build; geometric when a few rows at a time arrive, so
  // growing one row per build does not copy the whole triangle each time.
  const size_t need = CellCount(m.size());
  if (need > cells_.capacity()) {
    cells_.reserve(std::max(need, cells_.capacity() + cells_.capacity() / 2));
  }
  for (size_t r = rows_; r < m.size(); ++r) {
    const double* row = m.RowUnchecked(r);
    cells_.insert(cells_.end(), row, row + r);
  }
  rows_ = m.size();
}

void DistanceTriangle::CopyRows(std::span<const double> cells, size_t first,
                                size_t end, DistanceMatrix* m) {
  assert(first <= end && end <= m->n_ &&
         cells.size() == CellCount(end) - CellCount(first) &&
         "DistanceTriangle::CopyRows range");
  const size_t n = m->n_;
  double* out = m->cells_.data();
  // Each row lands as one copy into the lower half; the upper half is then
  // mirrored in kBlock x kBlock tiles, which keeps the strided side of that
  // transpose within a few cache lines (a column-at-a-time mirror thrashes
  // the cache when n is a power of two).
  for (size_t r = first; r < end; ++r) {
    std::copy_n(cells.data() + CellCount(r) - CellCount(first), r,
                out + r * n);
  }
  constexpr size_t kBlock = 32;
  for (size_t rb = first; rb < end; rb += kBlock) {
    const size_t r_end = std::min(rb + kBlock, end);
    for (size_t cb = 0; cb < r_end; cb += kBlock) {
      const size_t c_end = std::min(cb + kBlock, r_end);
      for (size_t c = cb; c < c_end; ++c) {
        for (size_t r = std::max(rb, c + 1); r < r_end; ++r) {
          out[c * n + r] = out[r * n + c];
        }
      }
    }
  }
}

}  // namespace dpe::distance
