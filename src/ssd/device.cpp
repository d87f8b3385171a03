#include "ssd/device.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/hash.hpp"
#include "common/sim_time.hpp"

namespace hykv::ssd {
namespace {

/// Visits the segment pieces of [offset, offset + len) in order:
/// fn(segment index, offset within it, offset within the range, length).
template <typename Fn>
void for_each_piece(std::size_t offset, std::size_t len, Fn&& fn) {
  std::size_t done = 0;
  while (done < len) {
    const std::size_t at = offset + done;
    const std::size_t within = at % kSegmentBytes;
    const std::size_t piece = std::min(len - done, kSegmentBytes - within);
    fn(at / kSegmentBytes, within, done, piece);
    done += piece;
  }
}

}  // namespace

SsdDevice::SsdDevice(SsdProfile profile) : profile_(std::move(profile)) {
  const unsigned channels = profile_.channels == 0 ? 1 : profile_.channels;
  channels_.reserve(channels);
  for (unsigned i = 0; i < channels; ++i) {
    channels_.push_back(std::make_unique<Mutex>());
  }
}

Result<ExtentId> SsdDevice::allocate(std::size_t size) {
  const MutexLock lock(meta_mu_);
  if (used_bytes_ + size > profile_.capacity_bytes) {
    return StatusCode::kOutOfMemory;
  }
  const ExtentId id = next_id_++;
  Extent& extent = extents_[id];
  extent.size = size;
  const std::size_t count = (size + kSegmentBytes - 1) / kSegmentBytes;
  extent.segments.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    extent.segments.push_back(std::make_unique<char[]>(
        std::min(kSegmentBytes, size - i * kSegmentBytes)));
  }
  extent.dead.assign(count, 0);
  used_bytes_ += size;
  return id;
}

void SsdDevice::free(ExtentId id) {
  const MutexLock lock(meta_mu_);
  auto it = extents_.find(id);
  if (it == extents_.end()) return;
  used_bytes_ -= it->second.size;
  extents_.erase(it);
}

void SsdDevice::discard(ExtentId id, std::size_t offset, std::size_t len) {
  const MutexLock lock(meta_mu_);
  auto it = extents_.find(id);
  if (it == extents_.end() || offset + len > it->second.size) return;
  Extent& extent = it->second;
  for_each_piece(offset, len, [&](std::size_t seg, std::size_t, std::size_t,
                                  std::size_t piece) {
    extent.dead[seg] += static_cast<std::uint32_t>(piece);
    const std::size_t seg_bytes =
        std::min(kSegmentBytes, extent.size - seg * kSegmentBytes);
    if (extent.dead[seg] >= seg_bytes && extent.segments[seg] != nullptr) {
      extent.segments[seg].reset();
      stats_.trimmed_bytes += seg_bytes;
    }
  });
}

void SsdDevice::occupy(sim::Nanos cost) {
  // Round-robin channel choice; the mutex queues concurrent accesses so a
  // saturated device exhibits queueing delay, not magic parallelism.
  const auto idx = channel_cursor_.fetch_add(1, std::memory_order_relaxed) %
                   channels_.size();
  const MutexLock channel(*channels_[idx]);
  sim::advance(cost);
  const MutexLock lock(meta_mu_);
  stats_.busy_ns += static_cast<std::uint64_t>(cost.count());
}

sim::Nanos SsdDevice::occupy_write(std::size_t bytes) {
  const sim::Nanos cost = profile_.write_time(bytes);
  occupy(cost);
  const MutexLock lock(meta_mu_);
  ++stats_.writes;
  stats_.written_bytes += bytes;
  return cost;
}

sim::Nanos SsdDevice::occupy_read(std::size_t bytes) {
  const sim::Nanos cost = profile_.read_time(bytes);
  occupy(cost);
  const MutexLock lock(meta_mu_);
  ++stats_.reads;
  stats_.read_bytes += bytes;
  return cost;
}

StatusCode SsdDevice::write_raw(ExtentId id, std::size_t offset,
                                std::span<const char> data) {
  const MutexLock lock(meta_mu_);
  auto it = extents_.find(id);
  if (it == extents_.end()) return StatusCode::kInvalidArgument;
  Extent& extent = it->second;
  if (offset + data.size() > extent.size) return StatusCode::kInvalidArgument;
  for_each_piece(offset, data.size(), [&](std::size_t seg, std::size_t within,
                                          std::size_t from, std::size_t piece) {
    // Every record in a discarded segment is dead: nothing reads it again.
    if (char* bytes = extent.segments[seg].get()) {
      std::memcpy(bytes + within, data.data() + from, piece);
    }
  });
  return StatusCode::kOk;
}

StatusCode SsdDevice::read_raw(ExtentId id, std::size_t offset,
                               std::span<char> out) {
  const MutexLock lock(meta_mu_);
  auto it = extents_.find(id);
  if (it == extents_.end()) return StatusCode::kInvalidArgument;
  Extent& extent = it->second;
  if (offset + out.size() > extent.size) return StatusCode::kInvalidArgument;
  bool trimmed = false;
  for_each_piece(offset, out.size(), [&](std::size_t seg, std::size_t within,
                                         std::size_t to, std::size_t piece) {
    if (const char* bytes = extent.segments[seg].get()) {
      std::memcpy(out.data() + to, bytes + within, piece);
    } else {
      trimmed = true;
    }
  });
  return trimmed ? StatusCode::kInvalidArgument : StatusCode::kOk;
}

bool SsdDevice::inject_error() {
  if (!fault_armed_.load(std::memory_order_relaxed)) return false;
  const MutexLock lock(meta_mu_);
  if (failed_) {
    ++stats_.io_errors;
    return true;
  }
  if (!faults_.enabled()) return false;
  // Deterministic draw: the n-th access fails iff the seeded chain says so,
  // independent of timing or thread interleaving.
  const std::uint64_t h = mix64(mix64(faults_.seed) ^ mix64(fault_seq_++));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (u < faults_.error_rate) {
    ++stats_.io_errors;
    return true;
  }
  return false;
}

StatusCode SsdDevice::check_fault() {
  return inject_error() ? StatusCode::kIoError : StatusCode::kOk;
}

void SsdDevice::set_fault_profile(SsdFaultProfile faults) {
  const MutexLock lock(meta_mu_);
  faults_ = faults;
  fault_seq_ = 0;
  fault_armed_.store(failed_ || faults_.enabled(), std::memory_order_relaxed);
}

void SsdDevice::set_failed(bool failed) {
  const MutexLock lock(meta_mu_);
  failed_ = failed;
  fault_armed_.store(failed_ || faults_.enabled(), std::memory_order_relaxed);
}

bool SsdDevice::failed() const {
  const MutexLock lock(meta_mu_);
  return failed_;
}

IoResult SsdDevice::write(ExtentId id, std::size_t offset,
                          std::span<const char> data) {
  if (inject_error()) {
    // The failed attempt still occupied the bus/channel before the
    // controller reported the error.
    const sim::Nanos cost = profile_.write_time(data.size());
    occupy(cost);
    return {StatusCode::kIoError, cost};
  }
  // Validate + copy first (host-side), then occupy the device for the
  // modelled duration. Ordering is unobservable to callers because write()
  // returns only after both.
  const StatusCode code = write_raw(id, offset, data);
  if (!ok(code)) return {code, sim::Nanos{0}};
  // Synchronous direct write: device time plus the flush barrier that makes
  // it durable before returning (O_DIRECT|O_SYNC semantics).
  const sim::Nanos cost = profile_.write_time(data.size()) + profile_.sync_barrier;
  occupy(cost);
  {
    const MutexLock lock(meta_mu_);
    ++stats_.writes;
    stats_.written_bytes += data.size();
  }
  return {StatusCode::kOk, cost};
}

IoResult SsdDevice::read(ExtentId id, std::size_t offset, std::span<char> out) {
  if (inject_error()) {
    const sim::Nanos cost = profile_.read_time(out.size());
    occupy(cost);
    return {StatusCode::kIoError, cost};
  }
  const sim::Nanos cost = occupy_read(out.size());
  return {read_raw(id, offset, out), cost};
}

std::size_t SsdDevice::used_bytes() const {
  const MutexLock lock(meta_mu_);
  return used_bytes_;
}

std::size_t SsdDevice::extent_size(ExtentId id) const {
  const MutexLock lock(meta_mu_);
  auto it = extents_.find(id);
  return it == extents_.end() ? 0 : it->second.size;
}

DeviceStats SsdDevice::stats() const {
  const MutexLock lock(meta_mu_);
  return stats_;
}

void SsdDevice::reset_stats() {
  const MutexLock lock(meta_mu_);
  stats_ = DeviceStats{};
}

}  // namespace hykv::ssd
