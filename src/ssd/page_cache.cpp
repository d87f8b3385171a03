#include "ssd/page_cache.hpp"

#include <algorithm>

#include "common/sim_time.hpp"

namespace hykv::ssd {

PageCache::PageCache(SsdDevice& device, PageCacheConfig config)
    : device_(device), config_(config), flusher_([this] { flusher_main(); }) {}

PageCache::~PageCache() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  dirty_cv_.notify_all();
  clean_cv_.notify_all();
  flusher_.join();
}

void PageCache::touch_lru_locked(ExtentId id, Entry& entry) {
  if (entry.in_lru) lru_.erase(entry.lru_pos);
  lru_.push_front(id);
  entry.lru_pos = lru_.begin();
  entry.in_lru = true;
}

void PageCache::make_room_locked(std::size_t need) {
  while (resident_bytes_ + need > config_.memory_limit && !lru_.empty()) {
    // Evict from the LRU tail, skipping dirty entries (not evictable until
    // written back). If everything cached is dirty we simply exceed the
    // limit transiently -- the throttle bounds how far.
    auto it = std::prev(lru_.end());
    bool evicted = false;
    while (true) {
      Entry& victim = entries_.at(*it);
      if (victim.dirty == 0) {
        victim.resident = false;
        victim.in_lru = false;
        resident_bytes_ -= victim.size;
        ++stats_.evictions;
        lru_.erase(it);
        evicted = true;
        break;
      }
      if (it == lru_.begin()) break;
      --it;
    }
    if (!evicted) break;
  }
}

IoResult PageCache::write(IoScheme mode, ExtentId id, std::size_t offset,
                          std::span<const char> data) {
  const HostIoProfile& host = config_.host;
  const bool via_mmap = mode == IoScheme::kMmap;
  sim::Nanos cost = host.copy_time(data.size());
  if (via_mmap) {
    cost += host.page_touch * static_cast<std::int64_t>(host.pages(data.size()));
    const MutexLock lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end() || !it->second.mmap_mapped) cost += host.mmap_setup;
  } else {
    cost += host.syscall_overhead;
  }
  sim::advance(cost);
  // Transient device errors surface to the writer -- EIO from write(2) once
  // the kernel knows the device is erroring, SIGBUS from a store into a
  // failing mapping -- the hook that lets the hybrid manager's flush path
  // observe SSD outages (degraded mode).
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return {fault, cost};
  const StatusCode code = device_.write_raw(id, offset, data);
  if (!ok(code)) return {code, cost};

  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  if (via_mmap) entry.mmap_mapped = true;
  if (offset == 0 && data.size() == entry.size && !entry.resident) {
    entry.resident = true;
    resident_bytes_ += entry.size;
  }
  if (entry.resident) touch_lru_locked(id, entry);
  const bool was_clean = entry.dirty == 0;
  entry.dirty += data.size();
  dirty_bytes_ += data.size();
  if (was_clean) dirty_fifo_.push_back(id);
  make_room_locked(0);
  dirty_cv_.notify_one();

  if (dirty_bytes_ > config_.dirty_high_watermark) {
    const auto start = sim::now();
    clean_cv_.wait(mu_, [&]() REQUIRES(mu_) {
      return stop_ || dirty_bytes_ <= config_.dirty_low_watermark;
    });
    stats_.throttled_ns +=
        static_cast<std::uint64_t>((sim::now() - start).count());
  }
  return {StatusCode::kOk, cost};
}

IoResult PageCache::read(IoScheme mode, ExtentId id, std::size_t offset,
                         std::span<char> out) {
  const bool via_mmap = mode == IoScheme::kMmap;
  sim::Nanos cost = via_mmap ? sim::Nanos{0} : config_.host.syscall_overhead;
  bool hit;
  {
    const MutexLock lock(mu_);
    auto it = entries_.find(id);
    hit = it != entries_.end() && it->second.resident;
    if (via_mmap && (it == entries_.end() || !it->second.mmap_mapped)) {
      cost += config_.host.mmap_setup;
    }
    if (hit) {
      touch_lru_locked(id, it->second);
      if (via_mmap) it->second.mmap_mapped = true;
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
  }
  if (hit) {
    cost += config_.host.copy_time(out.size());
    sim::advance(cost);
    return {device_.read_raw(id, offset, out), cost};
  }
  sim::advance(cost);
  // Cache miss (a major fault under mmap): a real device read -- transient
  // errors apply (hits above are served from RAM and cannot fail).
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return {fault, cost};
  cost += device_.occupy_read(out.size());
  const StatusCode code = device_.read_raw(id, offset, out);
  if (!ok(code)) return {code, cost};
  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  if (via_mmap) entry.mmap_mapped = true;
  if (offset == 0 && out.size() == entry.size && !entry.resident) {
    entry.resident = true;
    resident_bytes_ += entry.size;
    touch_lru_locked(id, entry);
    make_room_locked(0);
  }
  return {StatusCode::kOk, cost};
}

void PageCache::invalidate(ExtentId id) {
  const MutexLock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.dirty > 0) {
    dirty_bytes_ -= entry.dirty;
    dirty_fifo_.remove(id);
    clean_cv_.notify_all();
  }
  if (entry.resident) {
    resident_bytes_ -= entry.size;
    if (entry.in_lru) lru_.erase(entry.lru_pos);
  }
  entries_.erase(it);
}

void PageCache::sync() {
  const MutexLock lock(mu_);
  clean_cv_.wait(mu_, [&]() REQUIRES(mu_) { return stop_ || dirty_bytes_ == 0; });
}

bool PageCache::resident(ExtentId id) const {
  const MutexLock lock(mu_);
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.resident;
}

std::size_t PageCache::dirty_bytes() const {
  const MutexLock lock(mu_);
  return dirty_bytes_;
}

PageCacheStats PageCache::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

void PageCache::flusher_main() {
  // Direct lock()/unlock() instead of a scoped lock: the loop drops mu_ for
  // the duration of each device write so writers keep making progress into
  // the cache while write-back proceeds. The analysis tracks the capability
  // through the explicit calls and checks it is re-held at the back edge.
  mu_.lock();
  while (true) {
    dirty_cv_.wait(mu_, [&]() REQUIRES(mu_) { return stop_ || !dirty_fifo_.empty(); });
    if (dirty_fifo_.empty()) {
      if (stop_) {
        mu_.unlock();
        return;
      }
      continue;
    }
    const ExtentId id = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // invalidated while queued
    const std::size_t amount = it->second.dirty;
    it->second.dirty = 0;  // re-dirtying after this point re-queues the id
    mu_.unlock();

    // Pay device write latency outside the lock.
    device_.occupy_write(amount);

    mu_.lock();
    dirty_bytes_ -= std::min(dirty_bytes_, amount);
    stats_.writeback_bytes += amount;
    clean_cv_.notify_all();
  }
}

}  // namespace hykv::ssd
