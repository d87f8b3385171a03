// Modelled-time realisation.
//
// hykv simulates hardware that this machine does not have (InfiniBand HCAs,
// SATA/NVMe SSDs). Every modelled cost is computed in nanoseconds from a
// profile struct and *realised on the real clock* so that threads overlap the
// way they would against real devices: a client thread that issued a
// non-blocking request genuinely runs while the "device" time elapses.
//
// Realisation strategy (this box may be single-core, so burning the CPU in a
// spin loop would serialise everything and destroy overlap):
//   - durations above kSpinTail are slept via clock_nanosleep on an absolute
//     deadline (yields the core), with the final kSpinTail spun for accuracy;
//   - short durations are spun outright;
//   - timer slack is reduced to 1us at process start (init_precise_timing)
//     so sleeps wake within a few microseconds of the deadline.
//
// A global time scale multiplies every modelled duration. Tests run the exact
// same code paths at a small scale (fast), benches at scale 1. Ratios between
// modelled costs -- which is what the paper's figures are about -- are
// preserved at any scale.
#pragma once

#include <chrono>
#include <cstdint>

namespace hykv::sim {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Nanos = std::chrono::nanoseconds;

constexpr Nanos us(std::int64_t v) { return Nanos{v * 1000}; }
constexpr Nanos ms(std::int64_t v) { return Nanos{v * 1000000}; }

/// Multiplier applied to every modelled duration before realisation.
/// 1.0 = real modelled time; tests typically use 0.02-0.1.
double time_scale() noexcept;
void set_time_scale(double scale) noexcept;

/// RAII guard that sets the time scale for a test body and restores it.
class ScopedTimeScale {
 public:
  explicit ScopedTimeScale(double scale) noexcept;
  ~ScopedTimeScale();
  ScopedTimeScale(const ScopedTimeScale&) = delete;
  ScopedTimeScale& operator=(const ScopedTimeScale&) = delete;

 private:
  double previous_;
};

/// Applies the global scale to a modelled duration.
Nanos scaled(Nanos modelled) noexcept;

[[nodiscard]] inline TimePoint now() noexcept { return Clock::now(); }

/// Blocks the calling thread for `modelled` (after scaling), sleeping where
/// possible so other threads can use the core. This is the single primitive
/// every simulated device cost goes through.
void advance(Nanos modelled);

/// Blocks until the (already real-time) deadline with sleep+spin accuracy.
/// Used by transports that stamp messages with a delivery time.
void wait_until(TimePoint deadline);

/// Like advance(), but never spins: sleeps the whole (scaled) duration even
/// when short. Use for coarse time passage (synthetic application compute,
/// poll intervals) where sub-20us precision does not matter but burning the
/// core would starve the very threads being measured.
void advance_coarse(Nanos modelled);

/// Lowers the thread/process timer slack so microsecond sleeps are accurate.
/// Idempotent; called from main() of benches/examples and from test setup.
void init_precise_timing() noexcept;

}  // namespace hykv::sim
