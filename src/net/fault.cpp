#include "net/fault.hpp"

#include "common/hash.hpp"

namespace hykv::net {
namespace {

/// Maps a 64-bit hash to a uniform double in [0, 1).
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t pair_key(EndpointId src, EndpointId dst) noexcept {
  return mix64(src * 0x9E3779B97F4A7C15ULL ^ dst);
}

}  // namespace

FaultInjector::FaultInjector(FaultProfile profile) : profile_(profile) {}

double FaultInjector::draw(EndpointId src, EndpointId dst,
                           std::uint64_t ordinal,
                           std::uint64_t salt) const noexcept {
  std::uint64_t h = profile_.seed;
  h = mix64(h ^ mix64(src));
  h = mix64(h ^ mix64(dst));
  h = mix64(h ^ mix64(ordinal));
  h = mix64(h ^ mix64(salt));
  return to_unit(h);
}

std::uint64_t FaultInjector::next_ordinal(EndpointId src, EndpointId dst) {
  const MutexLock lock(mu_);
  return pair_seq_[pair_key(src, dst)]++;
}

MessageFault FaultInjector::on_message(EndpointId src, EndpointId dst) {
  const std::uint64_t ordinal = next_ordinal(src, dst);
  MessageFault fault;
  // Independent draws per fault class (distinct salts) so e.g. a high drop
  // rate does not starve the duplicate schedule.
  if (profile_.drop_rate > 0.0 &&
      draw(src, dst, ordinal, /*salt=*/1) < profile_.drop_rate) {
    fault.drop = true;
    return fault;  // a dropped message cannot also be duplicated/delayed
  }
  if (profile_.duplicate_rate > 0.0 &&
      draw(src, dst, ordinal, /*salt=*/2) < profile_.duplicate_rate) {
    fault.duplicate = true;
  }
  if (profile_.delay_rate > 0.0 &&
      draw(src, dst, ordinal, /*salt=*/3) < profile_.delay_rate) {
    fault.extra_delay = profile_.extra_delay;
  }
  return fault;
}

void FaultInjector::set_link_down(EndpointId endpoint, bool down) {
  const MutexLock lock(mu_);
  if (down) {
    down_.insert(endpoint);
  } else {
    down_.erase(endpoint);
  }
}

bool FaultInjector::link_down(EndpointId a, EndpointId b) const {
  const MutexLock lock(mu_);
  return down_.contains(a) || down_.contains(b);
}

}  // namespace hykv::net
