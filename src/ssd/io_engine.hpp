// The storage stack one hybrid Memcached server owns: a device, its page
// cache, and the one write and one read through which the store flushes
// evicted key-value data to the SSD and loads it back under each of the
// paper's three I/O schemes (Section V-B2 / Fig. 4):
//   - kDirect : O_DIRECT-style synchronous device access, the scheme the
//               existing H-RDMA-Def design uses for every size;
//   - kCached : write(2)/read(2) through the page cache with asynchronous
//               write-back -- wins for large data sizes;
//   - kMmap   : loads and stores into a mapping of the page cache -- wins
//               for small data sizes.
// All three move real bytes; they differ only in which modelled costs they
// pay and when. The adaptive slab manager (store/) picks a scheme per slab
// class.
#pragma once

#include <span>

#include "ssd/device.hpp"
#include "ssd/page_cache.hpp"

namespace hykv::ssd {

class StorageStack {
 public:
  StorageStack(SsdProfile profile, PageCacheConfig cache_config)
      : device_(std::move(profile)), cache_(device_, cache_config) {}

  [[nodiscard]] SsdDevice& device() noexcept { return device_; }
  [[nodiscard]] PageCache& cache() noexcept { return cache_; }

  /// Writes `data` at `offset` of extent `id`. kDirect returns once the
  /// device holds the bytes durably; kCached and kMmap leave them dirty in
  /// the page cache for write-back (PageCache::sync drains it).
  IoResult write(IoScheme scheme, ExtentId id, std::size_t offset,
                 std::span<const char> data) {
    if (scheme != IoScheme::kDirect) return cache_.write(scheme, id, offset, data);
    return device_.write(id, offset, data);
  }

  /// Reads `out.size()` bytes at `offset` of extent `id`. A kDirect read is
  /// H-RDMA-Def's slab-granular swap-in (Ouyang'12): fetching one item
  /// streams in the rest of its extent too -- on average half a slab of read
  /// amplification, charged as a second device read. The page-cache schemes
  /// read item-granular instead, a large part of this paper's win on the
  /// GET path.
  IoResult read(IoScheme scheme, ExtentId id, std::size_t offset,
                std::span<char> out) {
    if (scheme != IoScheme::kDirect) return cache_.read(scheme, id, offset, out);
    IoResult result = device_.read(id, offset, out);
    const std::size_t end = offset + out.size();
    const std::size_t extent_bytes = device_.extent_size(id);
    if (extent_bytes > end) result.charged += device_.occupy_read(extent_bytes - end);
    return result;
  }

  /// A record at [offset, offset + len) of extent `id` died: the device
  /// frees what that leaves wholly dead (SsdDevice::discard). The page cache
  /// still counts the extent resident until it is freed.
  void discard(ExtentId id, std::size_t offset, std::size_t len) {
    device_.discard(id, offset, len);
  }

 private:
  SsdDevice device_;
  PageCache cache_;
};

}  // namespace hykv::ssd
