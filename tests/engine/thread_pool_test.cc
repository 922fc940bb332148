#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace dpe::common {
namespace {

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(pool, 0, touched.size(), 7, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 5, 5, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ChunkBoundariesRespectGrain) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelFor(pool, 0, 103, 10, [&](size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  size_t total = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_LE(end - begin, 10u);
    EXPECT_EQ(begin % 10, 0u);  // static tiling: deterministic boundaries
    total += end - begin;
  }
  EXPECT_EQ(total, 103u);
}

TEST(ThreadPoolTest, StatsCountExecutedTasksAndQueueDepth) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.GetStats().tasks_executed, 0u);
  for (int i = 0; i < 25; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  const ThreadPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.tasks_executed, 25u);
  EXPECT_GE(stats.peak_queue_depth, 1u);
  EXPECT_EQ(pool.queue_depth(), 0u);  // drained
}

TEST(ThreadPoolTest, BusyTimeAccumulatesAcrossTasks) {
  ThreadPool pool(1);
  pool.Submit([] {
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 2000000; ++i) sink += i;
  });
  pool.Wait();
  EXPECT_GT(pool.GetStats().busy_ns, 0u);
}

TEST(ParallelForTest, EmptyRangeRecordsZeroTasks) {
  ThreadPool pool(2);
  ParallelFor(pool, 5, 5, 1, [](size_t, size_t) {});
  const ThreadPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
  EXPECT_EQ(stats.busy_ns, 0u);
}

TEST(ParallelForTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(pool, 0, 100, 9, [&](size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

}  // namespace
}  // namespace dpe::common
