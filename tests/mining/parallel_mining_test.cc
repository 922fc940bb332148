// Bit-identity of the parallel mining kernels: every miner run with a
// thread pool of {1, 2, 4, 8} workers must produce exactly the result of
// its serial reference (pool == nullptr) — labels, medoids, FP deviations,
// merge distances, outlier sets — on odd sizes (uneven chunking) and on
// tie-heavy matrices (quantized distances), where nondeterministic
// reductions or tie-breaks would show first.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "mining/dbscan.h"
#include "mining/hierarchical.h"
#include "mining/kmedoids.h"
#include "mining/outlier.h"
#include "tests/mining/random_matrices.h"

namespace dpe::mining {
namespace {

using testutil::SmoothMatrix;
using testutil::TieHeavyMatrix;

const size_t kThreadCounts[] = {1, 2, 4, 8};

void ExpectKMedoidsIdentical(const distance::DistanceMatrix& m, size_t k) {
  KMedoidsOptions serial_opt;
  serial_opt.k = k;
  auto serial = KMedoids(m, serial_opt).value();
  for (size_t threads : kThreadCounts) {
    common::ThreadPool pool(threads);
    KMedoidsOptions opt = serial_opt;
    opt.pool = &pool;
    auto parallel = KMedoids(m, opt).value();
    EXPECT_EQ(parallel.labels, serial.labels) << threads << " threads";
    EXPECT_EQ(parallel.medoids, serial.medoids) << threads << " threads";
    // EXPECT_EQ on the double: the deviation reduction must be bit-stable.
    EXPECT_EQ(parallel.total_deviation, serial.total_deviation)
        << threads << " threads";
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads << " threads";
  }
}

void ExpectDbscanIdentical(const distance::DistanceMatrix& m) {
  DbscanOptions serial_opt;
  serial_opt.epsilon = 0.35;
  serial_opt.min_points = 3;
  auto serial = Dbscan(m, serial_opt).value();
  for (size_t threads : kThreadCounts) {
    common::ThreadPool pool(threads);
    DbscanOptions opt = serial_opt;
    opt.pool = &pool;
    auto parallel = Dbscan(m, opt).value();
    EXPECT_EQ(parallel.labels, serial.labels) << threads << " threads";
    EXPECT_EQ(parallel.cluster_count, serial.cluster_count)
        << threads << " threads";
  }
}

void ExpectHierarchicalIdentical(const distance::DistanceMatrix& m) {
  auto serial = CompleteLink(m).value();
  for (size_t threads : kThreadCounts) {
    common::ThreadPool pool(threads);
    auto parallel = CompleteLink(m, &pool).value();
    ASSERT_EQ(parallel.merges.size(), serial.merges.size())
        << threads << " threads";
    for (size_t i = 0; i < serial.merges.size(); ++i) {
      EXPECT_EQ(parallel.merges[i].left, serial.merges[i].left)
          << threads << " threads, merge " << i;
      EXPECT_EQ(parallel.merges[i].right, serial.merges[i].right)
          << threads << " threads, merge " << i;
      EXPECT_EQ(parallel.merges[i].distance, serial.merges[i].distance)
          << threads << " threads, merge " << i;
    }
  }
}

void ExpectOutliersIdentical(const distance::DistanceMatrix& m) {
  OutlierOptions serial_opt;
  serial_opt.p = 0.7;
  serial_opt.d = 0.6;
  auto serial = DistanceBasedOutliers(m, serial_opt).value();
  for (size_t threads : kThreadCounts) {
    common::ThreadPool pool(threads);
    OutlierOptions opt = serial_opt;
    opt.pool = &pool;
    auto parallel = DistanceBasedOutliers(m, opt).value();
    EXPECT_EQ(parallel.is_outlier, serial.is_outlier) << threads << " threads";
    EXPECT_EQ(parallel.outliers, serial.outliers) << threads << " threads";
  }
}

TEST(ParallelMiningTest, KMedoidsBitIdenticalAcrossThreadCounts) {
  ExpectKMedoidsIdentical(TieHeavyMatrix(37, 1), 4);
  ExpectKMedoidsIdentical(SmoothMatrix(41, 2), 5);
  ExpectKMedoidsIdentical(SmoothMatrix(9, 3), 3);  // n smaller than grain*threads
}

TEST(ParallelMiningTest, DbscanBitIdenticalAcrossThreadCounts) {
  ExpectDbscanIdentical(TieHeavyMatrix(37, 4));
  ExpectDbscanIdentical(SmoothMatrix(41, 5));
  ExpectDbscanIdentical(SmoothMatrix(9, 6));
}

TEST(ParallelMiningTest, HierarchicalBitIdenticalAcrossThreadCounts) {
  ExpectHierarchicalIdentical(TieHeavyMatrix(25, 7));
  ExpectHierarchicalIdentical(SmoothMatrix(31, 8));
  ExpectHierarchicalIdentical(SmoothMatrix(7, 9));
}

TEST(ParallelMiningTest, OutliersBitIdenticalAcrossThreadCounts) {
  ExpectOutliersIdentical(TieHeavyMatrix(37, 10));
  ExpectOutliersIdentical(SmoothMatrix(41, 11));
  ExpectOutliersIdentical(SmoothMatrix(9, 12));
}

TEST(ParallelMiningTest, DegenerateSizes) {
  for (size_t n : {0u, 1u, 2u, 3u}) {
    distance::DistanceMatrix m = SmoothMatrix(n, 13);
    common::ThreadPool pool(4);
    if (n >= 1) {
      KMedoidsOptions kopt;
      kopt.k = 1;
      kopt.pool = &pool;
      KMedoidsOptions kserial;
      kserial.k = 1;
      EXPECT_EQ(KMedoids(m, kopt).value().labels,
                KMedoids(m, kserial).value().labels);
    }
    DbscanOptions dopt;
    dopt.pool = &pool;
    DbscanOptions dserial;
    EXPECT_EQ(Dbscan(m, dopt).value().labels,
              Dbscan(m, dserial).value().labels);
    EXPECT_EQ(CompleteLink(m, &pool).value().merges.size(),
              CompleteLink(m).value().merges.size());
    OutlierOptions oopt;
    oopt.pool = &pool;
    OutlierOptions oserial;
    EXPECT_EQ(DistanceBasedOutliers(m, oopt).value().outliers,
              DistanceBasedOutliers(m, oserial).value().outliers);
  }
}

}  // namespace
}  // namespace dpe::mining
