// Deterministic fault injection for the simulated interconnect.
//
// A FaultInjector sits between Endpoint::send and the fabric's link model
// and decides, per message, whether to drop it, deliver it twice or add
// extra delay. Decisions are pure functions of
// (profile seed, src, dst, per-pair sequence number), so a fixed seed yields
// the same fault schedule for the same traffic pattern regardless of how the
// OS interleaves unrelated endpoint pairs -- the property the chaos suite
// relies on for reproducible failures.
//
// "Link down" windows model a crashed/partitioned server: while an endpoint
// is marked down, every message to or from it is silently dropped. Windows are driven explicitly by the test
// harness (set_link_down), not by the random schedule, so a test can assert
// exact recovery behaviour around the window edges.
//
// With FaultProfile::none() (the default) the fabric never consults the
// injector: the happy path stays a null-pointer check.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/mutex.hpp"
#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "net/message.hpp"

namespace hykv::net {

/// Knobs for the random (seed-driven) part of the failure model. Rates are
/// probabilities in [0, 1] evaluated independently per message.
struct FaultProfile {
  double drop_rate = 0.0;           ///< Two-sided message loss.
  double duplicate_rate = 0.0;      ///< Message delivered twice.
  double delay_rate = 0.0;          ///< Message delayed by extra_delay.
  sim::Nanos extra_delay{0};        ///< Added (modelled) delay when delayed.
  std::uint64_t seed = 1;           ///< Root of the deterministic schedule.
  /// Arms the injector even with all rates zero -- for runs that drive only
  /// explicit link-down windows.
  bool arm = false;

  [[nodiscard]] bool enabled() const noexcept {
    return arm || drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0;
  }

  /// Perfect fabric -- the fabric skips the injector entirely.
  static FaultProfile none() noexcept { return {}; }
};

/// Verdict for one two-sided message.
struct MessageFault {
  bool drop = false;
  bool duplicate = false;
  sim::Nanos extra_delay{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultProfile profile);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Fault verdict for the next message src -> dst. Deterministic per
  /// (seed, src, dst, message ordinal on that pair).
  MessageFault on_message(EndpointId src, EndpointId dst);

  /// Marks an endpoint's link down (true) or restores it (false). While
  /// down, all traffic touching the endpoint is dropped.
  void set_link_down(EndpointId endpoint, bool down) EXCLUDES(mu_);
  [[nodiscard]] bool link_down(EndpointId a, EndpointId b) const EXCLUDES(mu_);

  [[nodiscard]] const FaultProfile& profile() const noexcept { return profile_; }

 private:
  /// Uniform double in [0, 1) for draw `ordinal` of the (src, dst) stream.
  double draw(EndpointId src, EndpointId dst, std::uint64_t ordinal,
              std::uint64_t salt) const noexcept;
  std::uint64_t next_ordinal(EndpointId src, EndpointId dst) EXCLUDES(mu_);

  FaultProfile profile_;  ///< Immutable after construction.
  mutable Mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> pair_seq_ GUARDED_BY(mu_);
  std::unordered_set<EndpointId> down_ GUARDED_BY(mu_);
};

}  // namespace hykv::net
