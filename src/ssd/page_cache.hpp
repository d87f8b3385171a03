// Simulated OS page cache with asynchronous write-back.
//
// Cached I/O (write(2)/read(2)) and mmap I/O both go through this
// component's one write and one read; the access mode picks only the host
// cost an access pays. Writes pay host-side costs alone and become *dirty*
// bytes that a background flusher later writes to the device, exactly like
// Linux write-back. Writers throttle when dirty bytes exceed a high
// watermark (Linux dirty_ratio behaviour) so sustained overload still
// observes device speed -- this is what bounds the cached-I/O advantage in
// Fig. 4 / Fig. 7c.
//
// Residency granularity is the extent. The hybrid slab manager always writes
// whole extents (one per flushed slab or item run), so per-extent residency
// is exact for every access pattern hykv generates. Partial writes are
// supported for data correctness but only toggle residency when they cover
// the full extent.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/profiles.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "ssd/device.hpp"

namespace hykv::ssd {

/// The paper's three I/O schemes for flushing evicted data and loading it
/// back (Section V-B2 / Fig. 4); StorageStack (io_engine.hpp) runs each.
enum class IoScheme : std::uint8_t { kDirect = 0, kCached, kMmap };

constexpr std::string_view to_string(IoScheme scheme) noexcept {
  switch (scheme) {
    case IoScheme::kDirect: return "direct";
    case IoScheme::kCached: return "cached";
    case IoScheme::kMmap: return "mmap";
  }
  return "?";
}

struct PageCacheConfig {
  std::size_t dirty_high_watermark = std::size_t{32} << 20;
  std::size_t dirty_low_watermark = std::size_t{16} << 20;
  std::size_t memory_limit = std::size_t{192} << 20;  ///< Clean+dirty resident bytes.
  HostIoProfile host{};
};

struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writeback_bytes = 0;
  std::uint64_t throttled_ns = 0;  ///< Writer time spent blocked on dirty limit.
  std::uint64_t evictions = 0;
};

class PageCache {
 public:
  PageCache(SsdDevice& device, PageCacheConfig config);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Cached (`mode` kCached, write(2)) or mapped (kMmap) store: copy cost
  /// plus the syscall, or plus a touch per page and the extent's one-time
  /// map setup. The bytes become dirty, queue for write-back and throttle
  /// the writer above the high watermark.
  IoResult write(IoScheme mode, ExtentId id, std::size_t offset,
                 std::span<const char> data) EXCLUDES(mu_);

  /// Cached (read(2)) or mapped load: a resident extent costs the copy; a
  /// miss (a major fault for kMmap) pays a device read and populates the
  /// cache. kCached adds the syscall either way, kMmap the first-map setup.
  IoResult read(IoScheme mode, ExtentId id, std::size_t offset,
                std::span<char> out) EXCLUDES(mu_);

  /// Drops cache state for a freed extent (dirty data is discarded -- caller
  /// owns the decision, mirroring unlink() of a dirty file).
  void invalidate(ExtentId id) EXCLUDES(mu_);

  /// fsync equivalent: blocks until no dirty bytes remain.
  void sync() EXCLUDES(mu_);

  [[nodiscard]] bool resident(ExtentId id) const EXCLUDES(mu_);
  [[nodiscard]] std::size_t dirty_bytes() const EXCLUDES(mu_);
  [[nodiscard]] PageCacheStats stats() const EXCLUDES(mu_);
  [[nodiscard]] const PageCacheConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::size_t size = 0;
    std::size_t dirty = 0;       ///< Bytes awaiting write-back.
    bool resident = false;
    bool mmap_mapped = false;    ///< First mmap touch already charged.
    std::list<ExtentId>::iterator lru_pos;
    bool in_lru = false;
  };

  void flusher_main() EXCLUDES(mu_);
  void make_room_locked(std::size_t need) REQUIRES(mu_);
  void touch_lru_locked(ExtentId id, Entry& entry) REQUIRES(mu_);

  SsdDevice& device_;
  PageCacheConfig config_;

  mutable Mutex mu_;
  CondVar dirty_cv_;    ///< Signals the flusher.
  CondVar clean_cv_;    ///< Signals throttled writers / sync.
  std::unordered_map<ExtentId, Entry> entries_ GUARDED_BY(mu_);
  std::list<ExtentId> dirty_fifo_ GUARDED_BY(mu_);  ///< Write-back order.
  std::list<ExtentId> lru_ GUARDED_BY(mu_);  ///< Clean eviction order (front = MRU).
  std::size_t dirty_bytes_ GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ GUARDED_BY(mu_) = 0;
  PageCacheStats stats_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread flusher_;
};

}  // namespace hykv::ssd
