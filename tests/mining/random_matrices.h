// Seeded random distance matrices shared by the mining suites: the
// tie-heavy and smooth fixtures the thread-count identity tests and the
// complete-link oracle test both run on.

#ifndef DPE_TESTS_MINING_RANDOM_MATRICES_H_
#define DPE_TESTS_MINING_RANDOM_MATRICES_H_

#include <cstdint>
#include <random>

#include "distance/matrix.h"

namespace dpe::testutil {

/// Symmetric random matrix, quantized to one decimal so exact distance
/// ties are common — the tie-break order is part of the contract.
inline distance::DistanceMatrix TieHeavyMatrix(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tenth(0, 10);
  distance::DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, tenth(rng) / 10.0);
    }
  }
  return m;
}

/// Smooth random matrix (no artificial ties) in [0, 1].
inline distance::DistanceMatrix SmoothMatrix(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  distance::DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) m.set(i, j, u(rng));
  }
  return m;
}

}  // namespace dpe::testutil

#endif  // DPE_TESTS_MINING_RANDOM_MATRICES_H_
