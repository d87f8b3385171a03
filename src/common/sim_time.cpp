#include "common/sim_time.hpp"

#include <atomic>
#include <cmath>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

namespace hykv::sim {
namespace {

// Final stretch of every long wait that is spun rather than slept. Large
// enough to absorb typical wake-up latency after timer slack is lowered,
// small enough not to monopolise a single-core box.
constexpr Nanos kSpinTail{20'000};

std::atomic<double> g_time_scale{1.0};

void spin_until(TimePoint deadline) {
  while (Clock::now() < deadline) {
    // Busy wait; pause hint keeps hyperthread siblings happy where present.
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace

double time_scale() noexcept { return g_time_scale.load(std::memory_order_relaxed); }

void set_time_scale(double scale) noexcept {
  g_time_scale.store(scale < 0.0 ? 0.0 : scale, std::memory_order_relaxed);
}

ScopedTimeScale::ScopedTimeScale(double scale) noexcept : previous_(time_scale()) {
  set_time_scale(scale);
}

ScopedTimeScale::~ScopedTimeScale() { set_time_scale(previous_); }

Nanos scaled(Nanos modelled) noexcept {
  const double s = time_scale();
  if (s == 1.0) return modelled;
  return Nanos{static_cast<Nanos::rep>(std::llround(static_cast<double>(modelled.count()) * s))};
}

void advance(Nanos modelled) {
  const Nanos real = scaled(modelled);
  if (real <= Nanos::zero()) return;
  wait_until(Clock::now() + real);
}

void wait_until(TimePoint deadline) {
  TimePoint current = Clock::now();
  if (current >= deadline) return;
  // Sleep the bulk of the wait so other threads (servers, progress engines)
  // can run -- essential for honest overlap numbers on few-core machines.
  if (deadline - current > kSpinTail) {
    std::this_thread::sleep_until(deadline - kSpinTail);
  }
  spin_until(deadline);
}

void advance_coarse(Nanos modelled) {
  const Nanos real = scaled(modelled);
  if (real <= Nanos::zero()) return;
  std::this_thread::sleep_for(real);
}

void init_precise_timing() noexcept {
#if defined(__linux__)
  // 1us timer slack: nanosleep wakes within a handful of microseconds
  // instead of the 50us default. Applies to the calling thread's children
  // too when set before they are spawned.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace hykv::sim
