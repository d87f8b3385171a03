// The heart of the hybrid Memcached server: slab-backed RAM storage with an
// SSD overflow tier ("RAM+SSD hybrid memory", Ouyang et al. ICPP'12, as
// extended by the paper's Section V-B).
//
// Behaviour by mode:
//   kInMemory -- memcached semantics: when RAM is exhausted, LRU items are
//                *dropped* (later Gets miss and hit the backend database).
//   kHybrid   -- when RAM is exhausted, a batch of LRU items (up to one slab,
//                1 MB) is serialised and flushed to the SSD; items remain
//                retrievable from flash. No data is lost until SSD capacity
//                is exhausted. An item promoted back to RAM opportunistically
//                keeps its SSD record as a clean copy until it is mutated,
//                so evicting it unchanged writes nothing.
//
// I/O policy (hybrid only):
//   kDirectAll -- every flush uses direct I/O on the full batch, the
//                 H-RDMA-Def behaviour whose cost Fig. 2(b) exposes.
//   kAdaptive  -- per-slab-class scheme selection (Fig. 5): classes with
//                 chunks <= adaptive_threshold flush via mmap I/O, larger
//                 classes via cached I/O.
//
// Thread safety: all public operations are safe for concurrent callers. The
// internal mutex is *not* held across modelled SSD time: flush batches are
// serialised under the lock but written outside it, and SSD reads pin their
// extent via shared_ptr so concurrent deletes/frees stay safe. Readers of an
// extent whose write-back is still in flight wait on the extent's ready flag.
// get() can also hand such a pinned read to its caller (PendingRead), whose
// finish_read() runs it later on another thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.hpp"
#include "common/epoch.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/metrics.hpp"
#include "common/sim_time.hpp"
#include "common/status.hpp"
#include "ssd/io_engine.hpp"
#include "store/hash_map.hpp"
#include "store/item.hpp"
#include "store/slab.hpp"

namespace hykv::store {

enum class StorageMode : std::uint8_t { kInMemory = 0, kHybrid };
enum class IoPolicy : std::uint8_t { kDirectAll = 0, kAdaptive };

struct ManagerConfig {
  StorageMode mode = StorageMode::kInMemory;
  IoPolicy io_policy = IoPolicy::kDirectAll;
  /// Slab classes with chunk_size <= threshold evict via mmap I/O under
  /// kAdaptive; larger ones via cached I/O.
  std::size_t adaptive_threshold = std::size_t{64} << 10;
  SlabAllocator::Config slab{};
  /// Cap on live SSD bytes (0 = device capacity only). Mirrors the paper's
  /// "SSD usage is limited to 4 GB" setup in Fig. 7(c).
  std::size_t ssd_limit = 0;
  /// Promote an SSD-resident item back to RAM on Get when a chunk is free.
  bool promote_on_hit = true;
  /// Swap-in semantics (the H-RDMA-Def behaviour, after Ouyang et al.): an
  /// SSD hit *always* promotes, evicting/flushing other items if needed --
  /// so cold Gets pay allocation churn on top of the SSD read. The optimised
  /// designs promote opportunistically instead (promote_on_hit only).
  bool force_promote = false;
  /// Degraded (RAM-only) mode: after this many *consecutive* SSD I/O errors
  /// the manager stops flushing and evicts like the in-memory design --
  /// better to lose cold cache entries than to wedge every Set behind a
  /// failing device.
  unsigned degrade_after_io_errors = 3;
  /// While degraded, one flush is re-attempted (half-open probe) after this
  /// much real time; success leaves degraded mode.
  sim::Nanos heal_probe_after = sim::ms(50);
  /// Shard count for ShardedManager (always a power of two). 0 = auto:
  /// ~2x hardware threads, capped so every shard keeps at least a few slab
  /// pages of arena. Ignored by a bare HybridSlabManager, which is always
  /// one shard.
  unsigned shards = 0;
  /// Modelled per-operation CPU cost realised *while holding the store
  /// lock* (store/get only). Production servers spend ~a microsecond of CPU
  /// under the lock per op; on few-core build hosts that serialisation is
  /// invisible because one core serialises everything anyway. Benches set
  /// this so shard-scaling behaviour reproduces on any host, exactly like
  /// the fabric/SSD latency models. Realised with advance_coarse (pure
  /// sleep): holders of different shard locks overlap even on one core,
  /// holders of the same lock serialise -- the contention being modelled.
  /// 0 (default) = off; no behaviour change.
  sim::Nanos modelled_op_cost{0};
  /// Non-blocking read path: RAM-resident GETs run lock-free (seqlock
  /// validation + epoch-based reclamation) and fall back to the locked path
  /// on conflict/miss/SSD residency. Results are byte-identical either way;
  /// off restores the pre-optimistic, strictly-locked behaviour.
  bool optimistic_reads = true;
  /// Optional latency recorder for store-phase spans: optimistic vs locked
  /// reads, SSD flush attempts, and the paper's slab-allocation, cache
  /// check+load and cache-update stages. Not owned; must outlive the
  /// manager. The server injects its recorder here; bare managers default
  /// to nullptr and pay zero recording cost (not even a clock read). ShardedManager copies the pointer into every
  /// shard's config, so all shards record into the same recorder.
  metrics::LatencyRecorder* latency = nullptr;
};

/// Store counters of one shard. The sharded facade and the testbed sum them
/// with metrics::merge (degraded ORs).
#define HYKV_MANAGER_STATS_FIELDS(X)                                          \
  X(std::uint64_t, sets)                                                      \
  X(std::uint64_t, ram_hits)                                                  \
  X(std::uint64_t, ssd_hits)                                                  \
  X(std::uint64_t, misses)                                                    \
  X(std::uint64_t, expired)                                                   \
  X(std::uint64_t, deletes)                                                   \
  X(std::uint64_t, flushes) /* flush batches written to SSD */                \
  X(std::uint64_t, flushed_items)                                             \
  X(std::uint64_t, flushed_bytes)                                             \
  X(std::uint64_t, promotions) /* SSD items promoted back to RAM */           \
  X(std::uint64_t, clean_evictions) /* evicted with their SSD copy current */ \
  X(std::uint64_t, dropped_evictions) /* items lost (LRU / SSD full) */       \
  X(std::uint64_t, ssd_live_bytes) /* live (referenced) bytes on SSD */       \
  X(std::uint64_t, checksum_failures)                                         \
  X(std::uint64_t, io_errors) /* SSD accesses that failed (kIoError) */       \
  X(bool, degraded) /* RAM-only mode (SSD deemed unhealthy) */                \
  X(std::uint32_t, degraded_shards) /* degraded shards (<= shards) */         \
  X(std::uint64_t, optimistic_hits) /* GETs served lock-free (RAM seqlock) */ \
  X(std::uint64_t, optimistic_retries) /* seqlock conflicts retried */        \
  X(std::uint64_t, locked_fallbacks) /* GETs that fell back to locking */

struct ManagerStats {
  HYKV_COUNTER_FIELDS(ManagerStats, HYKV_MANAGER_STATS_FIELDS)
};

/// When a store() may commit, judged under the shard lock against the key's
/// current CAS (0 = absent or expired).
struct Condition {
  enum Kind : std::uint8_t {
    kAlways,   ///< set
    kAbsent,   ///< add: kNotStored if the key is live
    kPresent,  ///< replace: kNotStored if the key is absent
    kVersion,  ///< cas: kNotFound if absent, kNotStored if the CAS moved
    /// update(): as kVersion, and the commit keeps the live item's flags and
    /// expiry instead of the caller's (memcached keeps an item's TTL across
    /// append/prepend/incr/decr).
    kVersionKeepMeta,
  };
  Kind kind = kAlways;
  std::uint64_t cas = 0;  ///< kVersion*: the CAS the key must still carry.
};

/// The read-modify-write ops update() applies to an existing value.
struct Update {
  enum Kind : std::uint8_t {
    kAppend,
    kPrepend,
    kIncr,  ///< ASCII unsigned counter; wraps at 2^64 (memcached)
    kDecr,  ///< saturates at 0 (memcached)
  };
  Kind kind = kAppend;
  std::span<const char> bytes{};  ///< kAppend/kPrepend: the bytes to add.
  std::uint64_t delta = 0;        ///< kIncr/kDecr.
};

class HybridSlabManager {
  struct SsdRecord;  // defined below

 public:
  /// An SSD-resident GET whose flash read get() left to the caller: the
  /// record the lookup found stays pinned, so finish_read() returns its
  /// bytes and CAS even if a writer replaces the key first. The GET takes
  /// effect at the lookup, like a locked read that drops the lock for the
  /// flash.
  struct PendingRead {
    std::string key;
    std::shared_ptr<SsdRecord> record;
    sim::TimePoint read_start{};   ///< Opens the kLockedRead span.
    sim::TimePoint check_start{};  ///< Opens the kCacheCheckLoad span.
  };

  /// `storage` must outlive the manager; may be nullptr iff mode==kInMemory.
  HybridSlabManager(ManagerConfig config, ssd::StorageStack* storage);
  ~HybridSlabManager();

  HybridSlabManager(const HybridSlabManager&) = delete;
  HybridSlabManager& operator=(const HybridSlabManager&) = delete;

  /// Stores key -> value if `cond` holds (set/add/replace/cas: one write
  /// path). `expiration` is relative seconds (0 = never). The condition is
  /// checked under the shard lock, and again after an allocation that
  /// dropped it for a flush, so check and commit are atomic. With a
  /// recorder, time lands in Span::kSlabAllocation (allocation + any flush)
  /// and kCacheUpdate (item write + index/LRU update); the lookup of a
  /// previous version lands in kCacheCheckLoad.
  StatusCode store(std::string_view key, std::span<const char> value,
                   std::uint32_t flags, std::int64_t expiration,
                   Condition cond = {}) EXCLUDES(mu_);

  /// Fetches key into `out` (resized to the value length). A non-null `cas`
  /// receives the CAS of exactly these bytes (memcached "gets"): both come
  /// from one seqlock snapshot or one lock hold. On the locked path SSD
  /// loads are recorded as Span::kCacheCheckLoad, LRU promotion as
  /// kCacheUpdate; a lock-free hit records only kOptimisticRead.
  /// With `deferred`, a key found on the SSD is pinned there and get()
  /// returns kInProgress without reading it; finish_read() completes the GET.
  StatusCode get(std::string_view key, std::vector<char>& out,
                 std::uint32_t& flags, std::uint64_t* cas = nullptr,
                 PendingRead* deferred = nullptr) EXCLUDES(mu_);

  /// Completes a GET that get() deferred: reads the pinned record from
  /// flash, checks it and promotes it as get() would have. Its kLockedRead
  /// span runs from the lookup, so it includes the wait for this call.
  StatusCode finish_read(PendingRead& read, std::vector<char>& out,
                         std::uint32_t& flags, std::uint64_t* cas = nullptr)
      EXCLUDES(mu_);

  /// memcached append/prepend/incr/decr: reads the value and its CAS,
  /// applies `op`, and commits under Condition::kVersionKeepMeta (the
  /// item's flags and expiry kept); a commit that lost to another writer
  /// (kNotStored) retries from the read. Returns the new counter for
  /// incr/decr (0 for append/prepend). Absent key: kNotStored for
  /// append/prepend, kNotFound for incr/decr; a non-numeric counter:
  /// kInvalidArgument. Each attempt counts as one lookup and, if it
  /// commits, one set in the store counters. The retry is unbounded:
  /// writers as a whole always progress, but one update can starve while
  /// a steady stream of stores keeps moving the key's CAS (memcached, which
  /// runs these ops under its item lock, cannot starve them).
  Result<std::uint64_t> update(std::string_view key, const Update& op)
      EXCLUDES(mu_);

  StatusCode del(std::string_view key) EXCLUDES(mu_);
  /// True if the key is live. No server op calls it (add/replace check
  /// presence inside store()); it is a test helper.
  [[nodiscard]] bool exists(std::string_view key) const EXCLUDES(mu_);

  /// memcached "touch": updates the expiration without moving data.
  StatusCode touch(std::string_view key, std::int64_t expiration) EXCLUDES(mu_);

  /// Drops every item (memcached flush_all).
  void clear() EXCLUDES(mu_);

  [[nodiscard]] std::size_t item_count() const EXCLUDES(mu_);
  [[nodiscard]] ManagerStats stats() const EXCLUDES(mu_);
  [[nodiscard]] SlabStats slab_stats() const EXCLUDES(mu_);
  [[nodiscard]] const ManagerConfig& config() const noexcept { return config_; }

  /// Blocks until all flushed data is durable (test/shutdown hook).
  void sync_storage();

 private:
  /// An SSD extent holding one flushed batch; freed (TRIM + page-cache
  /// invalidate) when the last record referencing it dies.
  struct ExtentHandle {
    ssd::StorageStack* storage = nullptr;
    ssd::ExtentId id = ssd::kInvalidExtent;
    std::size_t bytes = 0;
    Mutex mu;
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
    /// Write-back never became durable (I/O error).
    bool failed GUARDED_BY(mu) = false;

    void mark_ready() EXCLUDES(mu);
    /// Wakes waiters with failed set: readers pinned to this extent must
    /// report the loss (kIoError) instead of returning garbage.
    void mark_failed() EXCLUDES(mu);
    /// Blocks until the write-back completes; returns true iff it failed.
    [[nodiscard]] bool wait_ready() EXCLUDES(mu);
    ~ExtentHandle();
  };

  /// One flushed item on the SSD. Its framed bytes stay on the device while
  /// anything pins the record: the index entry, a deferred GET, or a clone
  /// of the entry in a retired hash table. The destructor discards them.
  struct SsdRecord {
    SsdRecord() = default;
    SsdRecord(const SsdRecord&) = delete;  // one discard per framed record
    SsdRecord& operator=(const SsdRecord&) = delete;
    ~SsdRecord();

    std::shared_ptr<ExtentHandle> extent;
    std::uint32_t record_offset = 0;  ///< Offset of the framed record.
    std::uint32_t key_len = 0;
    std::uint32_t value_len = 0;
    std::uint32_t flags = 0;
    std::uint32_t value_checksum = 0;
    std::int64_t expiry = 0;
    std::uint64_t cas = 0;
    ssd::IoScheme scheme = ssd::IoScheme::kDirect;
  };

  /// Index value. `ram` is atomically published so optimistic readers can
  /// load it without the shard lock: the writer's release store makes the
  /// formatted item bytes visible, and nulling it (flush/evict/delete)
  /// precedes retirement through the epoch limbo. `ssd` is writer-only --
  /// the optimistic path never touches it (SSD hits always fall back).
  /// With both set, `ssd` is a clean copy of `ram` left by an opportunistic
  /// promotion: the same bytes, flags, expiry and CAS. Every mutation of the
  /// RAM item releases the copy first, and evicting the item while the copy
  /// is held re-points the entry at it instead of writing the item again.
  /// Copyable because HashMap clones entries on growth; copies snapshot the
  /// ram pointer (relaxed is enough: the publishing table store orders it).
  struct Entry {
    /// Release-published / acquire-read RAM pointer: the one Entry field the
    /// optimistic (lock-free) read path dereferences.
    std::atomic<ItemHeader*> ram ATOMIC_PUBLISHED(release-published
                                                  item pointer){nullptr};
    std::shared_ptr<SsdRecord> ssd;

    Entry() = default;
    Entry(ItemHeader* r, std::shared_ptr<SsdRecord> s)
        : ram(r), ssd(std::move(s)) {}
    Entry(const Entry& other)
        : ram(other.ram.load(std::memory_order_relaxed)), ssd(other.ssd) {}
    Entry(Entry&& other) noexcept
        : ram(other.ram.load(std::memory_order_relaxed)),
          ssd(std::move(other.ssd)) {}
    Entry& operator=(const Entry& other) {
      ram.store(other.ram.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
      ssd = other.ssd;
      return *this;
    }
    Entry& operator=(Entry&& other) noexcept {
      ram.store(other.ram.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
      ssd = std::move(other.ssd);
      return *this;
    }
  };

  /// Allocates a chunk, evicting (in-memory) or flushing (hybrid) as needed.
  /// May release and reacquire mu_ around SSD writes (always re-held on
  /// return -- the analysis checks this through the direct unlock/lock).
  char* allocate_with_reclaim(unsigned cls) REQUIRES(mu_);

  /// Flushes up to one slab page of LRU-tail items of `cls` to the SSD.
  /// Victims that still hold a clean SSD copy are evicted to it with no
  /// write; a batch of only those allocates no extent. Returns false if the
  /// class had nothing to flush. Lock juggling as above.
  /// flush_batch is the recording wrapper (Span::kSsdFlush); do_flush_batch
  /// does the work.
  bool flush_batch(unsigned cls) REQUIRES(mu_);
  bool do_flush_batch(unsigned cls) REQUIRES(mu_);

  /// Drops the LRU-tail item of `cls`; one with a clean SSD copy becomes
  /// SSD-resident instead of being lost. Returns false when the class has
  /// nothing to evict.
  bool drop_one(unsigned cls) REQUIRES(mu_);

  void unlink_ram_item(ItemHeader* item) REQUIRES(mu_);

  /// Removes every version the entry holds: unpublishes and retires its RAM
  /// item, releases its SSD record. The caller re-fills or erases it.
  void displace_locked(Entry& entry) REQUIRES(mu_);

  /// Unlinks a *published* RAM item and defers its chunk to the epoch limbo
  /// (a lock-free reader may still be copying it); with optimistic reads off
  /// this is plain unlink_ram_item. The caller must already have unpublished
  /// the entry's ram pointer.
  void retire_ram_item(ItemHeader* item) REQUIRES(mu_);

  /// LRU-tail victim of `cls` with CLOCK-style second chances: tails whose
  /// `touched` flag is set (an optimistic GET read them recently) are rescued
  /// to the front (bounded per call) instead of returned. nullptr when empty.
  ItemHeader* lru_tail_victim(unsigned cls) REQUIRES(mu_);

  /// Lock-free GET attempt: epoch-guarded bucket walk + seqlock-validated
  /// copy. True only on a RAM hit whose bytes validated; every other outcome
  /// (miss, expired, SSD-resident, version churn, guard exhaustion) returns
  /// false and the caller takes the locked path for the authoritative
  /// answer. `cas_out` may be nullptr (plain get).
  bool try_optimistic_get(std::string_view key, std::vector<char>& out,
                          std::uint32_t& flags, std::uint64_t* cas_out)
      EXCLUDES(mu_);

  /// The pre-optimistic locked path; `pay_modelled_cost` is false when the
  /// caller already realised modelled_op_cost before falling back. An SSD
  /// hit is read here unless `deferred` takes it (kInProgress).
  StatusCode get_locked(std::string_view key, std::vector<char>& out,
                        std::uint32_t& flags, std::uint64_t* cas,
                        bool pay_modelled_cost, PendingRead* deferred)
      EXCLUDES(mu_);

  /// An SSD hit's read, run unlocked with `record` pinned: waits for the
  /// write-back, reads and checks the value, then relocks to count it and
  /// promote it.
  StatusCode read_ssd(std::string_view key,
                      const std::shared_ptr<SsdRecord>& record,
                      sim::TimePoint check_start, std::vector<char>& out,
                      std::uint32_t& flags, std::uint64_t* cas) EXCLUDES(mu_);

  [[nodiscard]] ssd::IoScheme scheme_for_class(unsigned cls) const noexcept;
  [[nodiscard]] bool expired(std::int64_t expiry) const noexcept;
  void release_record_locked(const std::shared_ptr<SsdRecord>& record)
      REQUIRES(mu_);
  /// Releases the entry's SSD record, if any (the RAM item is about to
  /// change, so a clean copy would go stale).
  void drop_ssd_copy_locked(Entry& entry) REQUIRES(mu_);

  /// Accounts one failed SSD access; enters degraded mode at the configured
  /// streak and (re)arms the heal-probe timer.
  void note_io_failure_locked() REQUIRES(mu_);

  /// Current CAS version of the entry, whichever tier it lives in
  /// (0 = entry absent/expired).
  std::uint64_t current_cas_locked(const Entry* entry) const REQUIRES(mu_);

  /// kOk when `cond` holds for `entry`, else the status store() answers.
  /// For kVersionKeepMeta, also loads the live item's flags and expiry.
  StatusCode check_locked(const Entry* entry, const Condition& cond,
                          std::uint32_t& flags, std::int64_t& expiry) const
      REQUIRES(mu_);

  ManagerConfig config_;
  ssd::StorageStack* storage_;
  std::uint64_t cas_seq_ GUARDED_BY(mu_) = 1;  ///< Monotonic CAS stamp source.

  mutable Mutex mu_;
  SlabAllocator slabs_ GUARDED_BY(mu_);
  /// Single-writer / lock-free-reader: every mutation happens under mu_, but
  /// find_optimistic runs epoch-guarded with no lock at all, so the map
  /// cannot be GUARDED_BY(mu_) -- its internal atomics carry the publication
  /// contract (release bucket stores, clone-on-grow retirement).
  HashMap<Entry> index_ ATOMIC_PUBLISHED(single-writer under mu_,
                                         lock-free epoch-guarded readers);
  std::vector<LruList> lru_ GUARDED_BY(mu_);  ///< One per slab class.
  ManagerStats stats_ GUARDED_BY(mu_);
  unsigned consecutive_io_errors_ GUARDED_BY(mu_) = 0;  ///< Degradation streak.
  sim::TimePoint heal_probe_at_ GUARDED_BY(mu_){};  ///< Next half-open probe.

  /// Chunks of each slab class sitting in limbo_: reclaim prefers waiting
  /// for these over evicting more items when allocation stalls. Declared
  /// before limbo_ so it outlives limbo_'s destructor-time callbacks.
  std::vector<std::uint32_t> limbo_chunks_ GUARDED_BY(mu_);
  /// Deferred-free list for chunks/nodes still visible to lock-free readers.
  /// Accessed only under mu_ (Limbo is not thread-safe).
  epoch::Limbo limbo_ GUARDED_BY(mu_){epoch::global()};

  // Read-path counters: relaxed atomics because the optimistic path must not
  // touch mu_; folded into stats() output.
  std::atomic<std::uint64_t> opt_hits_ ATOMIC_PUBLISHED(relaxed counter){0};
  std::atomic<std::uint64_t> opt_retries_ ATOMIC_PUBLISHED(relaxed counter){0};
  std::atomic<std::uint64_t> opt_fallbacks_ ATOMIC_PUBLISHED(relaxed counter){0};
};

/// Seconds on the steady clock -- the manager's expiry time base.
std::int64_t steady_seconds() noexcept;

}  // namespace hykv::store
