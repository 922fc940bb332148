#include "distance/matrix.h"

#include <cmath>
#include <string>

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
    max_diff = std::max(max_diff, std::fabs(a.cells_[i] - b.cells_[i]));
  }
  return max_diff;
}

Result<DistanceMatrix> DistanceMatrix::Compute(
    const std::vector<sql::SelectQuery>& queries,
    const QueryDistanceMeasure& measure, const MeasureContext& context) {
  DPE_RETURN_NOT_OK(measure.Prepare(queries, context));
  DistanceMatrix m(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      DPE_ASSIGN_OR_RETURN(double d,
                           measure.Distance(queries[i], queries[j], context));
      m.set(i, j, d);
    }
  }
  return m;
}

}  // namespace dpe::distance
