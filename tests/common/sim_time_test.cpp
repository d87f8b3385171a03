#include "common/sim_time.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace hykv::sim {
namespace {

class SimTimeTest : public ::testing::Test {
 protected:
  void SetUp() override { init_precise_timing(); }
  void TearDown() override { set_time_scale(1.0); }
};

TEST_F(SimTimeTest, ScaledAppliesGlobalScale) {
  set_time_scale(0.5);
  EXPECT_EQ(scaled(us(100)), us(50));
  set_time_scale(2.0);
  EXPECT_EQ(scaled(us(100)), us(200));
  set_time_scale(0.0);
  EXPECT_EQ(scaled(us(100)), Nanos{0});
}

TEST_F(SimTimeTest, ScopedScaleRestores) {
  set_time_scale(1.0);
  {
    ScopedTimeScale guard(0.25);
    EXPECT_DOUBLE_EQ(time_scale(), 0.25);
  }
  EXPECT_DOUBLE_EQ(time_scale(), 1.0);
}

TEST_F(SimTimeTest, NegativeScaleClampsToZero) {
  set_time_scale(-1.0);
  EXPECT_DOUBLE_EQ(time_scale(), 0.0);
}

TEST_F(SimTimeTest, AdvanceZeroReturnsImmediately) {
  const auto start = now();
  advance(Nanos{0});
  advance(Nanos{-100});
  EXPECT_LT(now() - start, us(50));
}

TEST_F(SimTimeTest, AdvanceTakesApproximatelyModelledTime) {
  set_time_scale(1.0);
  const auto start = now();
  advance(us(500));
  const auto elapsed = now() - start;
  EXPECT_GE(elapsed, us(500));
  // Generous overshoot budget: scheduler noise on shared machines.
  EXPECT_LT(elapsed, us(500) + ms(5));
}

TEST_F(SimTimeTest, TimeScaleShortensRealWait) {
  set_time_scale(0.01);
  const auto start = now();
  advance(ms(50));  // modelled 50ms -> ~500us real
  const auto elapsed = now() - start;
  EXPECT_GE(elapsed, us(500));
  EXPECT_LT(elapsed, ms(20));
}

TEST_F(SimTimeTest, WaitUntilPastDeadlineIsImmediate) {
  const auto start = now();
  wait_until(start - ms(1));
  EXPECT_LT(now() - start, us(100));
}

// Worst overshoot of 32 plain 100us sleeps on this machine.
Nanos worst_sleep_overshoot() {
  constexpr int kSamples = 32;
  Nanos worst{0};
  for (int i = 0; i < kSamples; ++i) {
    const TimePoint deadline = Clock::now() + us(100);
    std::this_thread::sleep_until(deadline);
    const Nanos over = Clock::now() - deadline;
    if (over > worst) worst = over;
  }
  return worst;
}

TEST_F(SimTimeTest, SleepOvershootIsBounded) {
  // With timer slack lowered, a 100us sleep should not overshoot by more
  // than a couple of milliseconds even on a loaded box. This guards the
  // fidelity of every modelled latency in the repo.
  const auto overshoot = worst_sleep_overshoot();
  EXPECT_LT(overshoot, ms(5)) << "sleep overshoot too large for simulation";
}

}  // namespace
}  // namespace hykv::sim
