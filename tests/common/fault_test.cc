// The crash-injection harness itself (common/fault.h): spec parsing, hit
// counting, nth-hit selection, fire-at-most-once, and the capped wedge.
// The lethal actions (die, uncapped wedge) are exercised for real by
// bench_multihost, which scripts them into forked worker processes.

#include "common/fault.h"

#include <gtest/gtest.h>

#include <chrono>

namespace dpe::common {
namespace {

TEST(FaultInjectorTest, UnarmedFireIsANoOp) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  injector.Fire("worker.export");  // must simply return
  EXPECT_EQ(injector.hits("worker.export"), 0u)
      << "a fully disarmed injector does not even track hits";
}

TEST(FaultInjectorTest, SpecParsingRejectsMalformedEntries) {
  FaultInjector injector;
  std::string error;
  EXPECT_FALSE(injector.Arm("no-equals-sign", &error));
  EXPECT_NE(error.find("point=action"), std::string::npos);
  EXPECT_FALSE(injector.Arm("=die", &error));
  EXPECT_FALSE(injector.Arm("p=explode", &error));
  EXPECT_NE(error.find("die|wedge|sleep"), std::string::npos);
  EXPECT_FALSE(injector.Arm("p=sleep", &error))
      << "sleep requires a duration";
  EXPECT_FALSE(injector.Arm("p=sleep:abc", &error));
  EXPECT_FALSE(injector.Arm("p=die@0", &error))
      << "@ wants a positive hit count";
  EXPECT_FALSE(injector.Arm("p=die@x", &error));
  EXPECT_FALSE(injector.Arm("p=sleep:99999999999", &error))
      << "a duration an int cannot hold";
  EXPECT_FALSE(injector.Arm("p=die@4294967297", &error))
      << "a hit count an int cannot hold";
  EXPECT_FALSE(injector.armed()) << "a failed Arm never partially arms";
}

TEST(FaultInjectorTest, EmptySpecDisarms) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Arm("p=sleep:1"));
  EXPECT_TRUE(injector.armed());
  ASSERT_TRUE(injector.Arm(""));
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectorTest, SleepFiresOnTheScriptedHitAndOnlyOnce) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Arm("worker.preacquire=sleep:60@2"));

  const auto before_first = std::chrono::steady_clock::now();
  injector.Fire("worker.preacquire");  // hit 1: armed for hit 2, no action
  const auto after_first = std::chrono::steady_clock::now();
  EXPECT_LT(after_first - before_first, std::chrono::milliseconds(50));

  const auto before_second = std::chrono::steady_clock::now();
  injector.Fire("worker.preacquire");  // hit 2: sleeps 60ms
  const auto after_second = std::chrono::steady_clock::now();
  EXPECT_GE(after_second - before_second, std::chrono::milliseconds(55));

  EXPECT_FALSE(injector.armed()) << "the entry fired and is gone";
  const auto before_third = std::chrono::steady_clock::now();
  injector.Fire("worker.preacquire");  // hit 3: nothing left to fire
  EXPECT_LT(std::chrono::steady_clock::now() - before_third,
            std::chrono::milliseconds(50));
  EXPECT_EQ(injector.hits("worker.preacquire"), 3u);
}

TEST(FaultInjectorTest, CappedWedgeReturnsAfterItsCap) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Arm("worker.acquired=wedge:150"));
  const auto before = std::chrono::steady_clock::now();
  injector.Fire("worker.acquired");
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_GE(elapsed, std::chrono::milliseconds(140));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(FaultInjectorTest, MultipleEntriesOnIndependentPoints) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Arm("a=sleep:1;b=sleep:1@3"));
  injector.Fire("a");
  EXPECT_TRUE(injector.armed()) << "b's entry is still pending";
  injector.Fire("b");
  injector.Fire("b");
  injector.Fire("b");
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.hits("a"), 1u);
  EXPECT_EQ(injector.hits("b"), 3u);
}

TEST(FaultInjectorTest, ProgrammaticArmMirrorsTheSpecPath) {
  FaultInjector injector;
  FaultInjector::Fault fault;
  fault.point = "store.frame.mid_write";
  fault.action = FaultInjector::Action::kSleep;
  fault.delay_ms = 1;
  injector.Arm(fault);
  EXPECT_TRUE(injector.armed());
  injector.Fire("store.frame.mid_write");
  EXPECT_FALSE(injector.armed());
  injector.Clear();
  EXPECT_EQ(injector.hits("store.frame.mid_write"), 0u)
      << "Clear drops hit counts with the entries";
}

}  // namespace
}  // namespace dpe::common
