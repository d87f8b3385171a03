// In-chunk item layout and the intrusive LRU list.
//
// An item occupies one slab chunk: a fixed ItemHeader followed by the key
// bytes and the value bytes. The header embeds the LRU links (like
// memcached's it_prev/it_next) so promotion/eviction never allocates.
//
// Concurrency: a published item (reachable through the index) may be read by
// lock-free optimistic GETs while the shard lock holder mutates it in place.
// The header therefore carries a seqlock `version` (odd = mutation in
// progress) and every in-place field/byte write goes through the
// seq_write_begin/end bracket with relaxed-atomic stores (common/
// atomic_bytes.hpp). Fields that never change after publication (key bytes,
// key_len, slab_class) and items not yet published stay plain. `touched` is
// the optimistic path's LRU recency hint: readers set it lock-free, eviction
// grants a second chance instead of taking a recently-read tail victim.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>

#include "common/atomic_bytes.hpp"
#include "common/hash.hpp"
#include "common/thread_annotations.hpp"

namespace hykv::store {

struct ItemHeader {
  ItemHeader* lru_prev = nullptr;
  ItemHeader* lru_next = nullptr;
  std::uint32_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint32_t flags = 0;
  std::uint32_t slab_class = 0;
  std::int64_t expiry = 0;   ///< Absolute seconds (steady); 0 = never.
  std::uint64_t cas = 0;     ///< Version stamp for check-and-set.
  /// Seqlock word: odd while the lock holder mutates the item in place;
  /// optimistic readers retry/fall back on odd or changed versions.
  std::atomic<std::uint64_t> version ATOMIC_PUBLISHED(seqlock word){0};
  /// Set (relaxed) by optimistic GETs instead of an LRU move; consumed by
  /// eviction as a CLOCK-style second chance.
  std::atomic<std::uint8_t> touched ATOMIC_PUBLISHED(relaxed CLOCK bit){0};

  [[nodiscard]] char* key_data() noexcept {
    return reinterpret_cast<char*>(this) + sizeof(ItemHeader);
  }
  [[nodiscard]] const char* key_data() const noexcept {
    return reinterpret_cast<const char*>(this) + sizeof(ItemHeader);
  }
  [[nodiscard]] char* value_data() noexcept { return key_data() + key_len; }
  [[nodiscard]] const char* value_data() const noexcept {
    return key_data() + key_len;
  }
  [[nodiscard]] std::string_view key() const noexcept {
    return {key_data(), key_len};
  }
  [[nodiscard]] std::span<const char> value() const noexcept {
    return {value_data(), value_len};
  }
};
static_assert(sizeof(ItemHeader) % 8 == 0, "keep key bytes aligned");

/// Bytes an item with the given key/value lengths needs inside a chunk.
constexpr std::size_t item_total_size(std::size_t key_len,
                                      std::size_t value_len) noexcept {
  return sizeof(ItemHeader) + key_len + value_len;
}

/// Formats an item into a chunk the caller obtained from the allocator.
/// Plain stores: the item is unpublished, so no reader can race them -- the
/// publishing release-store (entry->ram) orders them for later readers.
inline ItemHeader* format_item(char* chunk, std::string_view key,
                               std::span<const char> value, std::uint32_t flags,
                               std::int64_t expiry, unsigned slab_class) {
  auto* item = new (chunk) ItemHeader();
  item->key_len = static_cast<std::uint32_t>(key.size());
  item->value_len = static_cast<std::uint32_t>(value.size());
  item->flags = flags;
  item->expiry = expiry;
  item->slab_class = slab_class;
  std::memcpy(item->key_data(), key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(item->value_data(), value.data(), value.size());
  }
  return item;
}

// ---------------------------------------------------------------------------
// Seqlock write bracket (writer holds the shard lock; readers are lock-free).
//
// Writer:   even = seq_write_begin(item);     // version odd
//           seq_store(...) / atomic_store_bytes(...)   // release stores
//           seq_write_end(item, even);        // version even again (release)
// Reader:   v1 = version.load(acquire); if odd retry
//           seq_load(...) / atomic_load_bytes(...)     // acquire loads
//           v2 = version.load(relaxed); valid iff v1 == v2
//
// This is the fence-free seqlock (common/atomic_bytes.hpp explains why no
// atomic_thread_fence: TSan cannot model fences). Each *release* data store
// keeps the preceding odd store ordered before it — a reader that observes
// any mid-mutation data then observes an odd/changed version and retries.
// Each *acquire* data load keeps the reader's validating v2 load ordered
// after it, and the release even-store orders the data stores before it, so
// a reader whose v1 == v2 == even copied a consistent snapshot.

/// Marks the item as mid-mutation. Returns the even version to publish via
/// seq_write_end once the data stores are done.
[[nodiscard]] inline std::uint64_t seq_write_begin(ItemHeader* item) noexcept {
  const std::uint64_t v = item->version.load(std::memory_order_relaxed);
  item->version.store(v + 1, std::memory_order_relaxed);
  return v + 2;
}

inline void seq_write_end(ItemHeader* item, std::uint64_t even) noexcept {
  item->version.store(even, std::memory_order_release);
}

/// Intrusive doubly-linked LRU: front = most recently used. One list per
/// slab class (memcached's per-class LRU).
class LruList {
 public:
  void push_front(ItemHeader* item) noexcept {
    item->lru_prev = nullptr;
    item->lru_next = head_;
    if (head_ != nullptr) head_->lru_prev = item;
    head_ = item;
    if (tail_ == nullptr) tail_ = item;
    ++size_;
  }

  void remove(ItemHeader* item) noexcept {
    if (item->lru_prev != nullptr) {
      item->lru_prev->lru_next = item->lru_next;
    } else {
      head_ = item->lru_next;
    }
    if (item->lru_next != nullptr) {
      item->lru_next->lru_prev = item->lru_prev;
    } else {
      tail_ = item->lru_prev;
    }
    item->lru_prev = item->lru_next = nullptr;
    --size_;
  }

  void move_to_front(ItemHeader* item) noexcept {
    if (head_ == item) return;
    remove(item);
    push_front(item);
  }

  [[nodiscard]] ItemHeader* tail() const noexcept { return tail_; }
  [[nodiscard]] ItemHeader* front() const noexcept { return head_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  void clear() noexcept {
    head_ = tail_ = nullptr;
    size_ = 0;
  }

 private:
  ItemHeader* head_ = nullptr;
  ItemHeader* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// On-SSD flat record framing used when items are flushed:
/// [u32 key_len][u32 value_len][u32 flags][u32 record_checksum(value)][i64 expiry][key][value]
struct SsdItemFraming {
  static constexpr std::size_t kHeaderBytes = 4 * 4 + 8;
  static constexpr std::size_t record_size(std::size_t key_len,
                                           std::size_t value_len) noexcept {
    return kHeaderBytes + key_len + value_len;
  }
};

/// The value checksum an SSD record carries: the low 32 bits of
/// xxh64(value, seed 0). The flush stamps it and every SSD-resident GET
/// recomputes it, so writer and reader share this one definition. A
/// truncated 32-bit hash misses a random corruption with the same 2^-32
/// odds as CRC32-C but gives up CRC's burst-error guarantee; nothing in this
/// simulator's fault model produces bursts that would need it.
inline std::uint32_t record_checksum(std::span<const char> value) noexcept {
  return static_cast<std::uint32_t>(xxh64(value.data(), value.size()));
}

}  // namespace hykv::store
