#include "store/hybrid_manager.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/atomic_bytes.hpp"
#include "common/logging.hpp"

namespace hykv::store {
namespace {

using SteadyClock = std::chrono::steady_clock;
using metrics::Span;

// The absolute expiry of a relative `expiration` in seconds (0 = never).
// A negative one that lands on exactly 0 would read as "never"; -1 is just
// as expired.
std::int64_t absolute_expiry(std::int64_t expiration) noexcept {
  if (expiration == 0) return 0;
  const std::int64_t at = steady_seconds() + expiration;
  return at == 0 ? -1 : at;
}

void put_u32(char* dst, std::uint32_t v) { std::memcpy(dst, &v, 4); }
void put_i64(char* dst, std::int64_t v) { std::memcpy(dst, &v, 8); }
std::uint32_t get_u32(const char* src) {
  std::uint32_t v = 0;
  std::memcpy(&v, src, 4);
  return v;
}

}  // namespace

std::int64_t steady_seconds() noexcept {
  static const SteadyClock::time_point start = SteadyClock::now();
  return std::chrono::duration_cast<std::chrono::seconds>(SteadyClock::now() -
                                                          start)
      .count();
}

void HybridSlabManager::ExtentHandle::mark_ready() {
  {
    const MutexLock lock(mu);
    ready = true;
  }
  cv.notify_all();
}

void HybridSlabManager::ExtentHandle::mark_failed() {
  {
    const MutexLock lock(mu);
    failed = true;
    ready = true;  // wake waiters; they must check `failed`
  }
  cv.notify_all();
}

bool HybridSlabManager::ExtentHandle::wait_ready() {
  const MutexLock lock(mu);
  cv.wait(mu, [&]() REQUIRES(mu) { return ready; });
  return failed;
}

HybridSlabManager::ExtentHandle::~ExtentHandle() {
  if (storage != nullptr && id != ssd::kInvalidExtent) {
    storage->cache().invalidate(id);
    storage->device().free(id);
  }
}

HybridSlabManager::SsdRecord::~SsdRecord() {
  // Runs when the last pin drops, so no reader can still want these bytes.
  if (extent != nullptr && extent->storage != nullptr &&
      extent->id != ssd::kInvalidExtent) {
    extent->storage->discard(extent->id, record_offset,
                             SsdItemFraming::record_size(key_len, value_len));
  }
}

HybridSlabManager::HybridSlabManager(ManagerConfig config,
                                     ssd::StorageStack* storage)
    : config_(config), storage_(storage), slabs_(config.slab) {
  assert(config_.mode == StorageMode::kInMemory || storage_ != nullptr);
  lru_.resize(slabs_.num_classes());
  limbo_chunks_.resize(slabs_.num_classes(), 0);
  if (config_.optimistic_reads) index_.set_limbo(&limbo_);
}

HybridSlabManager::~HybridSlabManager() {
  // Teardown is quiescent by contract (no readers in flight). Drain limbo
  // while slabs_/limbo_chunks_ are guaranteed alive for the callbacks.
  limbo_.flush_all();
}

bool HybridSlabManager::expired(std::int64_t expiry) const noexcept {
  return expiry != 0 && steady_seconds() >= expiry;
}

ssd::IoScheme HybridSlabManager::scheme_for_class(unsigned cls) const noexcept {
  if (config_.io_policy == IoPolicy::kDirectAll) return ssd::IoScheme::kDirect;
  return slabs_.chunk_size(cls) <= config_.adaptive_threshold
             ? ssd::IoScheme::kMmap
             : ssd::IoScheme::kCached;
}

void HybridSlabManager::unlink_ram_item(ItemHeader* item) {
  lru_[item->slab_class].remove(item);
  slabs_.deallocate(reinterpret_cast<char*>(item), item->slab_class);
}

void HybridSlabManager::retire_ram_item(ItemHeader* item) {
  const unsigned cls = item->slab_class;
  if (!config_.optimistic_reads) {
    unlink_ram_item(item);
    return;
  }
  lru_[cls].remove(item);
  ++limbo_chunks_[cls];
  // NO_THREAD_SAFETY_ANALYSIS: the deleter runs from limbo_.flush(), which is
  // only ever called under mu_, but the void* ctx round-trip erases the
  // capability so the analysis cannot see it.
  limbo_.retire(
      item, cls,
      [](void* ctx, void* obj, std::uint64_t aux) NO_THREAD_SAFETY_ANALYSIS {
        auto* self = static_cast<HybridSlabManager*>(ctx);
        const auto klass = static_cast<unsigned>(aux);
        self->slabs_.deallocate(static_cast<char*>(obj), klass);
        --self->limbo_chunks_[klass];
      },
      this);
}

ItemHeader* HybridSlabManager::lru_tail_victim(unsigned cls) {
  int rescues = 0;
  while (ItemHeader* tail = lru_[cls].tail()) {
    if (rescues < 8 &&
        tail->touched.exchange(0, std::memory_order_relaxed) != 0) {
      // An optimistic GET read this item since the last sweep: second
      // chance. Bounded so a fully-hot class still yields a victim.
      lru_[cls].move_to_front(tail);
      ++rescues;
      continue;
    }
    return tail;
  }
  return nullptr;
}

void HybridSlabManager::release_record_locked(
    const std::shared_ptr<SsdRecord>& record) {
  const std::size_t bytes =
      SsdItemFraming::record_size(record->key_len, record->value_len);
  stats_.ssd_live_bytes -= std::min<std::uint64_t>(stats_.ssd_live_bytes, bytes);
}

void HybridSlabManager::drop_ssd_copy_locked(Entry& entry) {
  if (entry.ssd == nullptr) return;
  release_record_locked(entry.ssd);
  entry.ssd.reset();
}

void HybridSlabManager::displace_locked(Entry& entry) {
  if (ItemHeader* item = entry.ram.load(std::memory_order_relaxed)) {
    // Unpublish before retiring: a lock-free reader that already loaded the
    // pointer finishes on the chunk in limbo, new readers see no RAM item.
    entry.ram.store(nullptr, std::memory_order_release);
    retire_ram_item(item);
  }
  drop_ssd_copy_locked(entry);
}

void HybridSlabManager::note_io_failure_locked() {
  ++stats_.io_errors;
  ++consecutive_io_errors_;
  if (!stats_.degraded &&
      consecutive_io_errors_ >= config_.degrade_after_io_errors) {
    stats_.degraded = true;
    HYKV_WARN("storage degraded after %u consecutive I/O errors: "
              "RAM-only mode (evict instead of flush)",
              consecutive_io_errors_);
  }
  if (stats_.degraded) {
    heal_probe_at_ = sim::now() + config_.heal_probe_after;
  }
}

bool HybridSlabManager::drop_one(unsigned cls) {
  ItemHeader* victim = lru_tail_victim(cls);
  if (victim == nullptr) return false;
  const std::string key(victim->key());
  Entry* entry = index_.find(key);
  assert(entry != nullptr &&
         entry->ram.load(std::memory_order_relaxed) == victim);
  // Unpublish before retiring: a lock-free reader that already loaded the
  // item pointer finishes safely (the chunk sits in limbo), and new readers
  // see the entry empty.
  if (entry != nullptr) entry->ram.store(nullptr, std::memory_order_release);
  retire_ram_item(victim);
  if (entry != nullptr && entry->ssd != nullptr) {
    ++stats_.clean_evictions;  // the SSD copy still serves the key
    return true;
  }
  index_.erase(key);
  ++stats_.dropped_evictions;
  return true;
}

bool HybridSlabManager::flush_batch(unsigned cls) {
  const sim::TimePoint start = metrics::span_start(config_.latency);
  const bool flushed = do_flush_batch(cls);
  metrics::record_since(config_.latency, Span::kSsdFlush, start);
  return flushed;
}

bool HybridSlabManager::do_flush_batch(unsigned cls) {
  if (lru_[cls].empty()) return false;

  // 1. Collect LRU-tail victims until the batch is full (<= one slab page).
  //    A victim whose SSD copy is still current is only unpublished: it
  //    counts toward the batch, so one flush frees about one page of chunks.
  struct Victim {
    std::string key;
    std::uint32_t record_offset;
  };
  std::vector<char> staging;
  std::vector<Victim> victims;
  std::vector<std::shared_ptr<SsdRecord>> records;
  std::size_t batch_bytes = 0;
  std::size_t clean = 0;

  const ssd::IoScheme scheme = scheme_for_class(cls);
  while (ItemHeader* item = lru_tail_victim(cls)) {
    const std::size_t rec_size =
        SsdItemFraming::record_size(item->key_len, item->value_len);
    if (batch_bytes != 0 && batch_bytes + rec_size > config_.slab.slab_bytes) {
      break;
    }
    batch_bytes += rec_size;
    // Unpublish (release) before the chunk returns to the free list so the
    // index never holds a dangling item pointer; a lock-free reader mid-copy
    // keeps the chunk alive via limbo.
    Entry* entry = index_.find(item->key());
    assert(entry != nullptr && entry->ram.load(std::memory_order_relaxed) == item);
    if (entry->ssd != nullptr) {
      entry->ram.store(nullptr, std::memory_order_release);
      retire_ram_item(item);
      ++clean;
      continue;
    }
    if (staging.empty()) staging.reserve(config_.slab.slab_bytes);
    const auto offset = static_cast<std::uint32_t>(staging.size());
    staging.resize(staging.size() + rec_size);
    char* p = staging.data() + offset;
    const std::uint32_t checksum = record_checksum(item->value());
    put_u32(p, item->key_len);
    put_u32(p + 4, item->value_len);
    put_u32(p + 8, item->flags);
    put_u32(p + 12, checksum);
    put_i64(p + 16, item->expiry);
    std::memcpy(p + SsdItemFraming::kHeaderBytes, item->key_data(),
                item->key_len);
    std::memcpy(p + SsdItemFraming::kHeaderBytes + item->key_len,
                item->value_data(), item->value_len);

    auto record = std::make_shared<SsdRecord>();
    record->record_offset = offset;
    record->key_len = item->key_len;
    record->value_len = item->value_len;
    record->flags = item->flags;
    record->value_checksum = checksum;
    record->expiry = item->expiry;
    record->cas = item->cas;
    record->scheme = scheme;
    records.push_back(std::move(record));
    victims.push_back(Victim{std::string(item->key()), offset});
    entry->ram.store(nullptr, std::memory_order_release);
    retire_ram_item(item);
  }
  stats_.clean_evictions += clean;
  if (victims.empty()) return true;  // only clean victims: nothing to write

  // 2. Reserve the SSD extent; on failure fall back to dropping the victims
  //    (data loss, like the in-memory design -- counted, never silent).
  const bool over_limit =
      config_.ssd_limit != 0 &&
      stats_.ssd_live_bytes + staging.size() > config_.ssd_limit;
  Result<ssd::ExtentId> extent =
      over_limit ? Result<ssd::ExtentId>(StatusCode::kOutOfMemory)
                 : storage_->device().allocate(staging.size());
  if (!extent.ok()) {
    for (const auto& victim : victims) index_.erase(victim.key);
    stats_.dropped_evictions += victims.size();
    HYKV_WARN("SSD full: dropped %zu items (%zu bytes)", victims.size(),
              staging.size());
    return true;  // chunks were freed; allocation can proceed
  }

  auto handle = std::make_shared<ExtentHandle>();
  handle->storage = storage_;
  handle->id = extent.value();
  handle->bytes = staging.size();

  // 3. Point the index entries at the (not yet durable) SSD records.
  for (std::size_t i = 0; i < victims.size(); ++i) {
    records[i]->extent = handle;
    Entry* entry = index_.find(victims[i].key);
    assert(entry != nullptr &&
           entry->ram.load(std::memory_order_relaxed) == nullptr);
    if (entry != nullptr) entry->ssd = records[i];
  }
  ++stats_.flushes;
  stats_.flushed_items += victims.size();
  stats_.flushed_bytes += staging.size();
  stats_.ssd_live_bytes += staging.size();

  // 4. Write outside the lock; readers of these records wait on ready.
  mu_.unlock();
  const StatusCode code = storage_->write(scheme, handle->id, 0, staging).status;
  if (!ok(code)) {
    HYKV_ERROR("flush write failed: %.*s",
               static_cast<int>(status_name(code).size()), status_name(code).data());
    handle->mark_failed();
  } else {
    handle->mark_ready();
  }
  mu_.lock();
  if (!ok(code)) {
    // The extent never became durable: these victims are lost. Erase every
    // entry still pointing at the failed batch (a concurrent set may have
    // displaced some already) -- counted, never silent.
    //
    // Roll back *exactly* what step 3 added for this batch. Concurrent
    // flushes only ever add to these counters and each failed flush subtracts
    // only its own contribution, so the subtraction can never underflow --
    // clamping it (as this once did) would silently absorb a real accounting
    // bug instead of surfacing it. ssd_live_bytes is rolled back per record
    // via release_record_locked below (records displaced by a concurrent set
    // during the write were already released at displacement).
    assert(stats_.flushes >= 1);
    assert(stats_.flushed_items >= victims.size());
    assert(stats_.flushed_bytes >= staging.size());
    stats_.flushes -= 1;
    stats_.flushed_items -= victims.size();
    stats_.flushed_bytes -= staging.size();
    for (std::size_t i = 0; i < victims.size(); ++i) {
      Entry* entry = index_.find(victims[i].key);
      if (entry != nullptr &&
          entry->ram.load(std::memory_order_relaxed) == nullptr &&
          entry->ssd == records[i]) {
        release_record_locked(records[i]);
        index_.erase(victims[i].key);
        ++stats_.dropped_evictions;
      }
    }
    note_io_failure_locked();
  } else {
    consecutive_io_errors_ = 0;
    if (stats_.degraded) {
      stats_.degraded = false;
      HYKV_WARN("storage healed: flush probe succeeded, leaving RAM-only mode");
    }
  }
  return true;
}

char* HybridSlabManager::allocate_with_reclaim(unsigned cls) {
  for (int attempt = 0; attempt < 4096; ++attempt) {
    // Retired chunks whose epoch has passed are the cheapest source of
    // memory: drain them before evicting or flushing anything live.
    if (config_.optimistic_reads && !limbo_.empty()) limbo_.flush();
    char* chunk = slabs_.allocate(cls);
    if (chunk != nullptr) return chunk;
    if (config_.optimistic_reads && limbo_chunks_[cls] > 0) {
      // Chunks of this class are already unlinked, just waiting for readers
      // to leave the epoch. Yield for them instead of evicting more data --
      // read critical sections are short by contract.
      mu_.unlock();
      std::this_thread::yield();
      mu_.lock();
      continue;
    }
    if (config_.mode == StorageMode::kInMemory) {
      if (!drop_one(cls)) return nullptr;
    } else if (stats_.degraded && sim::now() < heal_probe_at_) {
      // Degraded (RAM-only) mode: the SSD is misbehaving, so evict like the
      // in-memory design instead of queueing stores behind a failing device.
      // Once the probe timer expires the next allocation falls through to
      // flush_batch, which is the half-open heal attempt.
      if (!drop_one(cls)) return nullptr;
    } else {
      if (!flush_batch(cls)) {
        // Nothing left to flush in this class (slab calcification): fail the
        // store rather than stealing carved pages from other classes.
        return nullptr;
      }
    }
  }
  return nullptr;
}

StatusCode HybridSlabManager::store(std::string_view key,
                                    std::span<const char> value,
                                    std::uint32_t flags,
                                    std::int64_t expiration, Condition cond) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  const std::size_t total = item_total_size(key.size(), value.size());
  const unsigned cls = slabs_.class_for(total);
  if (cls == kInvalidClass) return StatusCode::kInvalidArgument;
  std::int64_t expiry = absolute_expiry(expiration);

  const MutexLock lock(mu_);
  if (config_.modelled_op_cost.count() > 0) {
    sim::advance_coarse(config_.modelled_op_cost);  // modelled under-lock CPU work
  }

  // Fast path: overwrite in place when the existing RAM item lives in the
  // same slab class and the key matches -- the common hot-key update. No
  // allocation, no flush churn; memcached-grade stores optimise this case
  // and without it a write-heavy Zipf workload would evict on every update.
  sim::TimePoint check_start = metrics::span_start(config_.latency);
  Entry* existing = index_.find(key);
  if (const StatusCode verdict = check_locked(existing, cond, flags, expiry);
      !ok(verdict)) {
    metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);
    return verdict;
  }
  ItemHeader* hot =
      existing != nullptr ? existing->ram.load(std::memory_order_relaxed)
                          : nullptr;
  if (hot != nullptr && hot->slab_class == cls && hot->key_len == key.size()) {
    metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);
    const sim::TimePoint update_start = metrics::span_start(config_.latency);
    drop_ssd_copy_locked(*existing);
    // Published item: optimistic readers may be copying it right now, so
    // the in-place mutation runs under the seqlock bracket and every store
    // is a relaxed atomic (tears are detected, never undefined).
    const std::uint64_t even = seq_write_begin(hot);
    seq_store(hot->value_len, static_cast<std::uint32_t>(value.size()));
    seq_store(hot->flags, flags);
    seq_store(hot->expiry, expiry);
    seq_store(hot->cas, cas_seq_++);
    if (!value.empty()) {
      atomic_store_bytes(hot->value_data(), value.data(), value.size());
    }
    seq_write_end(hot, even);
    lru_[cls].move_to_front(hot);
    ++stats_.sets;
    metrics::record_since(config_.latency, Span::kCacheUpdate, update_start);
    return StatusCode::kOk;
  }

  // Slab allocation (including any flush/eviction it triggers).
  const sim::TimePoint alloc_start = metrics::span_start(config_.latency);
  char* chunk = allocate_with_reclaim(cls);
  metrics::record_since(config_.latency, Span::kSlabAllocation, alloc_start);
  if (chunk == nullptr) return StatusCode::kOutOfMemory;

  // Cache check: displace any previous version of the key. The entry is
  // looked up, and the condition checked, again: the allocation may have
  // dropped the lock for a flush while another writer ran.
  check_start = metrics::span_start(config_.latency);
  existing = index_.find(key);
  if (const StatusCode verdict = check_locked(existing, cond, flags, expiry);
      !ok(verdict)) {
    slabs_.deallocate(chunk, cls);
    metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);
    return verdict;
  }
  if (existing != nullptr) displace_locked(*existing);
  metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);

  // Cache update: format the item, (re)index it, promote to LRU head. The
  // release publication store makes the plain format_item writes visible to
  // lock-free readers.
  const sim::TimePoint update_start = metrics::span_start(config_.latency);
  ItemHeader* item = format_item(chunk, key, value, flags, expiry, cls);
  item->cas = cas_seq_++;
  if (existing != nullptr) {
    existing->ram.store(item, std::memory_order_release);
  } else {
    index_.upsert(key, Entry{item, nullptr});
  }
  lru_[cls].push_front(item);
  ++stats_.sets;
  metrics::record_since(config_.latency, Span::kCacheUpdate, update_start);
  return StatusCode::kOk;
}

StatusCode HybridSlabManager::get(std::string_view key, std::vector<char>& out,
                                  std::uint32_t& flags, std::uint64_t* cas,
                                  PendingRead* deferred) {
  // One timestamp classifies the whole read by outcome: a GET that falls
  // back pays the failed optimistic attempt too, and that full cost lands in
  // the locked_read span (the cost the fallback actually imposed).
  const sim::TimePoint read_start = metrics::span_start(config_.latency);
  bool pay_modelled_cost = true;
  if (config_.optimistic_reads) {
    // The modelled per-op CPU cost is realised *outside* any lock here: on
    // the optimistic design the hash/copy work genuinely runs without the
    // shard lock, which is exactly the contention the ablation measures.
    if (config_.modelled_op_cost.count() > 0) {
      sim::advance_coarse(config_.modelled_op_cost);
    }
    // The seqlock bracket snapshots (value, flags, cas) atomically, so a CAS
    // token always matches the returned bytes.
    if (try_optimistic_get(key, out, flags, cas)) {
      metrics::record_since(config_.latency, Span::kOptimisticRead, read_start);
      return StatusCode::kOk;
    }
    opt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    pay_modelled_cost = false;
  }
  const StatusCode code =
      get_locked(key, out, flags, cas, pay_modelled_cost, deferred);
  if (code == StatusCode::kInProgress) {
    deferred->read_start = read_start;  // finish_read closes the span
    return code;
  }
  metrics::record_since(config_.latency, Span::kLockedRead, read_start);
  return code;
}

StatusCode HybridSlabManager::finish_read(PendingRead& read,
                                          std::vector<char>& out,
                                          std::uint32_t& flags,
                                          std::uint64_t* cas) {
  const StatusCode code =
      read_ssd(read.key, read.record, read.check_start, out, flags, cas);
  metrics::record_since(config_.latency, Span::kLockedRead, read.read_start);
  return code;
}

bool HybridSlabManager::try_optimistic_get(std::string_view key,
                                           std::vector<char>& out,
                                           std::uint32_t& flags,
                                           std::uint64_t* cas_out) {
  constexpr int kAttempts = 4;
  // Pin the epoch for the whole lookup: every pointer loaded below (hash
  // nodes, the entry, the item chunk) stays allocated until the guard drops,
  // however many writers unlink/retire concurrently.
  epoch::Domain::Guard guard(epoch::global());
  if (!guard.engaged()) return false;  // reader slots exhausted: locked path
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const Entry* entry = index_.find_optimistic(key);
    if (entry == nullptr) return false;  // miss: locked path is authoritative
    ItemHeader* item = entry->ram.load(std::memory_order_acquire);
    if (item == nullptr) return false;   // SSD-resident / being relocated
    const std::uint64_t v1 = item->version.load(std::memory_order_acquire);
    if ((v1 & 1u) != 0) {  // writer mid-mutation
      opt_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const auto value_len = seq_load(item->value_len);
    const auto item_flags = seq_load(item->flags);
    const auto item_expiry = seq_load(item->expiry);
    const auto item_cas = seq_load(item->cas);
    out.resize(value_len);
    atomic_load_bytes(out.data(), item->value_data(), value_len);
    // Fence-free validation: the acquire data loads above cannot be
    // reordered past this re-check (see common/atomic_bytes.hpp).
    if (item->version.load(std::memory_order_relaxed) != v1) {
      opt_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;  // torn: a writer overlapped the copy
    }
    if (expired(item_expiry)) return false;  // locked path reaps + counts it
    flags = item_flags;
    if (cas_out != nullptr) *cas_out = item_cas;
    // LRU recency without the lock: flag the item; eviction grants flagged
    // tails a second chance (lru_tail_victim).
    item->touched.store(1, std::memory_order_relaxed);
    opt_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;  // persistent churn on this key: serialise with the writers
}

StatusCode HybridSlabManager::get_locked(std::string_view key,
                                         std::vector<char>& out,
                                         std::uint32_t& flags,
                                         std::uint64_t* cas,
                                         bool pay_modelled_cost,
                                         PendingRead* deferred) {
  MutexLock lock(mu_);
  if (pay_modelled_cost && config_.modelled_op_cost.count() > 0) {
    sim::advance_coarse(config_.modelled_op_cost);  // modelled under-lock CPU work
  }
  const sim::TimePoint check_start = metrics::span_start(config_.latency);
  auto charge_check = [&] {
    metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);
  };

  Entry* entry = index_.find(key);
  if (entry == nullptr) {
    ++stats_.misses;
    charge_check();
    return StatusCode::kNotFound;
  }

  // RAM hit.
  if (ItemHeader* item = entry->ram.load(std::memory_order_relaxed)) {
    if (expired(item->expiry)) {
      displace_locked(*entry);  // the RAM item and any clean SSD copy
      index_.erase(key);
      ++stats_.expired;
      ++stats_.misses;
      charge_check();
      return StatusCode::kNotFound;
    }
    out.assign(item->value_data(), item->value_data() + item->value_len);
    flags = item->flags;
    if (cas != nullptr) *cas = item->cas;
    ++stats_.ram_hits;
    charge_check();
    const sim::TimePoint update_start = metrics::span_start(config_.latency);
    lru_[item->slab_class].move_to_front(item);
    metrics::record_since(config_.latency, Span::kCacheUpdate, update_start);
    return StatusCode::kOk;
  }

  // SSD hit: pin the record, drop the lock, read from flash -- here, or in
  // the caller's finish_read.
  std::shared_ptr<SsdRecord> record = entry->ssd;
  assert(record != nullptr);
  if (expired(record->expiry)) {
    release_record_locked(record);
    index_.erase(key);
    ++stats_.expired;
    ++stats_.misses;
    charge_check();
    return StatusCode::kNotFound;
  }
  if (deferred != nullptr) {
    deferred->key.assign(key);
    deferred->record = std::move(record);
    deferred->check_start = check_start;
    return StatusCode::kInProgress;
  }
  lock.unlock();
  return read_ssd(key, record, check_start, out, flags, cas);
}

StatusCode HybridSlabManager::read_ssd(std::string_view key,
                                       const std::shared_ptr<SsdRecord>& record,
                                       sim::TimePoint check_start,
                                       std::vector<char>& out,
                                       std::uint32_t& flags,
                                       std::uint64_t* cas) {
  auto charge_check = [&] {
    metrics::record_since(config_.latency, Span::kCacheCheckLoad, check_start);
  };
  const bool extent_failed = record->extent->wait_ready();
  if (extent_failed) {
    // The flush backing this record never reached the device: the data is
    // gone. flush_batch already erased the index entries; this reader just
    // pinned the record before that happened.
    charge_check();
    const MutexLock lock(mu_);
    Entry* current = index_.find(key);
    if (current != nullptr &&
        current->ram.load(std::memory_order_relaxed) == nullptr &&
        current->ssd == record) {
      release_record_locked(record);
      index_.erase(key);
    }
    ++stats_.misses;
    return StatusCode::kIoError;
  }
  // Read the framed record as written -- header, key, value -- so a read
  // that lands on the wrong bytes is caught, not only a corrupted value.
  const std::size_t prefix = SsdItemFraming::kHeaderBytes + record->key_len;
  out.resize(prefix + record->value_len);
  const StatusCode code = storage_->read(record->scheme, record->extent->id,
                                         record->record_offset, out)
                              .status;
  bool intact = false;
  if (ok(code)) {
    intact = get_u32(out.data()) == record->key_len &&
             get_u32(out.data() + 4) == record->value_len &&
             get_u32(out.data() + 12) == record->value_checksum &&
             std::string_view(out.data() + SsdItemFraming::kHeaderBytes,
                              record->key_len) == key;
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(prefix));
    intact = intact && record_checksum(out) == record->value_checksum;
  }
  flags = record->flags;
  // The pinned record's CAS is that of the bytes just read, even if a writer
  // replaced the key while the lock was dropped.
  if (cas != nullptr) *cas = record->cas;
  charge_check();  // SSD load is part of "Cache Check and Load"

  const MutexLock lock(mu_);
  if (!ok(code)) {
    ++stats_.misses;
    if (code == StatusCode::kIoError) {
      // Transient read error: the record stays indexed (a later read may
      // succeed) but the failure counts toward the degradation streak.
      note_io_failure_locked();
      return StatusCode::kIoError;
    }
    return StatusCode::kServerError;
  }
  consecutive_io_errors_ = 0;  // a served read breaks the failure streak
  if (!intact) {
    ++stats_.checksum_failures;
    ++stats_.misses;
    return StatusCode::kServerError;
  }
  ++stats_.ssd_hits;

  // Promotion back to RAM.
  //  - Opportunistic (promote_on_hit): only when a chunk is free -- the
  //    optimised designs; promotion never causes flush churn.
  //  - Forced (force_promote): swap-in semantics -- allocate even if that
  //    means flushing other items first (H-RDMA-Def; this is why its Gets
  //    from SSD are so expensive).
  if (config_.promote_on_hit || config_.force_promote) {
    const sim::TimePoint update_start = metrics::span_start(config_.latency);
    const std::size_t total = item_total_size(key.size(), out.size());
    const unsigned cls = slabs_.class_for(total);
    char* chunk = nullptr;
    if (cls != kInvalidClass) {
      if (config_.force_promote) {
        // May drop and re-acquire the lock around a flush; the allocation
        // cost (incl. flush) is slab-management work on the Get path.
        const sim::TimePoint alloc_start = metrics::span_start(config_.latency);
        chunk = allocate_with_reclaim(cls);
        metrics::record_since(config_.latency, Span::kSlabAllocation,
                              alloc_start);
      } else {
        // Epoch-expired chunks are free memory in waiting: drain them so an
        // opportunistic promotion isn't refused while RAM is available.
        if (config_.optimistic_reads && !limbo_.empty()) limbo_.flush();
        if (slabs_.can_allocate(cls)) chunk = slabs_.allocate(cls);
      }
    }
    if (chunk != nullptr) {
      // Re-validate: the lock may have been dropped during a flush and the
      // key overwritten/deleted meanwhile, or another GET of this record
      // promoted it already.
      Entry* current = index_.find(key);
      if (current != nullptr && current->ssd == record &&
          current->ram.load(std::memory_order_relaxed) == nullptr) {
        ItemHeader* item =
            format_item(chunk, key, out, record->flags, record->expiry, cls);
        item->cas = record->cas;  // promotion is relocation, not mutation
        // An opportunistic promotion keeps the record as the item's clean
        // copy; H-RDMA-Def's swap-in releases it.
        if (config_.force_promote) drop_ssd_copy_locked(*current);
        current->ram.store(item, std::memory_order_release);
        lru_[cls].push_front(item);
        ++stats_.promotions;
      } else {
        slabs_.deallocate(chunk, cls);
      }
    }
    metrics::record_since(config_.latency, Span::kCacheUpdate, update_start);
  }
  return StatusCode::kOk;
}

namespace {

// Applies a counter op to an ASCII unsigned integer in place. False if the
// value is not one (memcached answers CLIENT_ERROR).
bool apply_counter(const Update& op, std::vector<char>& value,
                   std::uint64_t& counter) {
  if (value.empty() || value.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (op.kind == Update::kIncr) {
    v += op.delta;  // memcached wraps on overflow; uint64 wrap matches
  } else {
    v = v > op.delta ? v - op.delta : 0;  // memcached saturates decr at 0
  }
  counter = v;
  const std::string digits = std::to_string(v);
  value.assign(digits.begin(), digits.end());
  return true;
}

}  // namespace

Result<std::uint64_t> HybridSlabManager::update(std::string_view key,
                                                const Update& op) {
  const bool counter_op = op.kind == Update::kIncr || op.kind == Update::kDecr;
  // memcached: append/prepend to a missing key is NOT_STORED, incr/decr is
  // NOT_FOUND.
  const StatusCode absent =
      counter_op ? StatusCode::kNotFound : StatusCode::kNotStored;
  std::vector<char> value;
  for (;;) {
    std::uint32_t flags = 0;
    std::uint64_t cas = 0;
    const StatusCode read = get(key, value, flags, &cas);
    if (read == StatusCode::kNotFound) return absent;
    if (!ok(read)) return read;
    std::uint64_t counter = 0;
    if (op.kind == Update::kAppend) {
      value.insert(value.end(), op.bytes.begin(), op.bytes.end());
    } else if (op.kind == Update::kPrepend) {
      value.insert(value.begin(), op.bytes.begin(), op.bytes.end());
    } else if (!apply_counter(op, value, counter)) {
      return StatusCode::kInvalidArgument;
    }
    const StatusCode committed =
        store(key, value, flags, 0,
              Condition{Condition::kVersionKeepMeta, cas});
    if (committed == StatusCode::kNotStored) continue;  // lost to a writer
    if (committed == StatusCode::kNotFound) return absent;
    if (!ok(committed)) return committed;
    return counter;
  }
}

StatusCode HybridSlabManager::touch(std::string_view key,
                                    std::int64_t expiration) {
  const MutexLock lock(mu_);
  Entry* entry = index_.find(key);
  if (current_cas_locked(entry) == 0) return StatusCode::kNotFound;
  const std::int64_t expiry = absolute_expiry(expiration);
  if (ItemHeader* item = entry->ram.load(std::memory_order_relaxed)) {
    drop_ssd_copy_locked(*entry);
    // Single aligned field: a bare relaxed-atomic store suffices (a
    // concurrent optimistic read of the old expiry linearises before).
    seq_store(item->expiry, expiry);
  } else {
    entry->ssd->expiry = expiry;
  }
  return StatusCode::kOk;
}

std::uint64_t HybridSlabManager::current_cas_locked(const Entry* entry) const {
  if (entry == nullptr) return 0;
  if (const ItemHeader* item = entry->ram.load(std::memory_order_relaxed)) {
    return expired(item->expiry) ? 0 : item->cas;
  }
  if (entry->ssd != nullptr) {
    return expired(entry->ssd->expiry) ? 0 : entry->ssd->cas;
  }
  return 0;
}

StatusCode HybridSlabManager::check_locked(const Entry* entry,
                                           const Condition& cond,
                                           std::uint32_t& flags,
                                           std::int64_t& expiry) const {
  if (cond.kind == Condition::kAlways) {
    return StatusCode::kOk;  // set: no version lookup on the hot path
  }
  const std::uint64_t current = current_cas_locked(entry);
  if (cond.kind == Condition::kAbsent) {
    return current == 0 ? StatusCode::kOk : StatusCode::kNotStored;
  }
  if (current == 0) {
    // replace: NOT_STORED. cas: NOT_FOUND whatever the token, 0 included.
    return cond.kind == Condition::kPresent ? StatusCode::kNotStored
                                            : StatusCode::kNotFound;
  }
  if (cond.kind == Condition::kPresent) return StatusCode::kOk;
  // memcached cas: EXISTS (kNotStored here) when the version moved on.
  if (current != cond.cas) return StatusCode::kNotStored;
  if (cond.kind == Condition::kVersionKeepMeta) {
    if (const ItemHeader* item = entry->ram.load(std::memory_order_relaxed)) {
      flags = item->flags;
      expiry = item->expiry;
    } else {
      flags = entry->ssd->flags;
      expiry = entry->ssd->expiry;
    }
  }
  return StatusCode::kOk;
}

StatusCode HybridSlabManager::del(std::string_view key) {
  const MutexLock lock(mu_);
  Entry* entry = index_.find(key);
  if (entry == nullptr) return StatusCode::kNotFound;
  displace_locked(*entry);
  index_.erase(key);
  ++stats_.deletes;
  return StatusCode::kOk;
}

bool HybridSlabManager::exists(std::string_view key) const {
  const MutexLock lock(mu_);
  return current_cas_locked(index_.find(key)) != 0;
}

void HybridSlabManager::clear() {
  const MutexLock lock(mu_);
  index_.for_each(
      [&](std::string_view, Entry& entry) { displace_locked(entry); });
  index_.clear();
}

std::size_t HybridSlabManager::item_count() const {
  const MutexLock lock(mu_);
  return index_.size();
}

ManagerStats HybridSlabManager::stats() const {
  const MutexLock lock(mu_);
  ManagerStats out = stats_;
  out.degraded_shards = stats_.degraded ? 1 : 0;
  // Optimistic GETs never touch mu_ or stats_; fold their counters in here.
  // An optimistic hit IS a RAM hit, so ram_hits stays the all-paths total.
  const std::uint64_t hits = opt_hits_.load(std::memory_order_relaxed);
  out.optimistic_hits = hits;
  out.optimistic_retries = opt_retries_.load(std::memory_order_relaxed);
  out.locked_fallbacks = opt_fallbacks_.load(std::memory_order_relaxed);
  out.ram_hits += hits;
  return out;
}

SlabStats HybridSlabManager::slab_stats() const {
  const MutexLock lock(mu_);
  return slabs_.stats();
}

void HybridSlabManager::sync_storage() {
  if (storage_ != nullptr) storage_->cache().sync();
}

}  // namespace hykv::store
