// Sharded storage tier: N independent HybridSlabManager shards behind the
// single-manager API.
//
// The paper's H-RDMA-Opt server decouples request receipt from the hybrid
// slab/LRU/SSD phase so multiple processing threads can overlap
// hybrid-memory work -- but with one manager behind one mutex those threads
// still serialise on the store. Partitioning the store is the standard cure
// in this design space (HiStore partitions its RDMA-side index per core;
// HSE shards its KV layer to scale on multicore + SSD): each shard owns its
// own hash index, slab arena, per-class LRU lists, flush state and
// degraded/heal state, so operations on different shards never touch a
// shared lock.
//
// Shard selection reuses the key hash the assoc table already computes
// (jenkins one-at-a-time) but takes its *top* bits, so the per-shard hash
// maps -- which bucket on the low bits -- still spread keys over all their
// buckets.
//
// Semantics are identical to a single HybridSlabManager: every per-key
// operation maps to exactly one shard. Within it, a store() checks its
// condition and commits under one hold of the shard lock (re-checked if a
// flush dropped it), and update() retries its read-modify-write until its
// CAS-conditioned commit lands, so set/add/replace/cas/append/prepend/incr/
// decr are each atomic per key.
// Cross-shard operations aggregate:
//   clear()        -- clears every shard (not atomic across shards; a
//                     concurrent set to an already-cleared shard survives,
//                     same as memcached's flush_all vs racing sets),
//   stats()        -- per-shard counter sums; `degraded` is true when ANY
//                     shard is degraded and `degraded_shards` counts them.
//                     The read-path counters (optimistic_hits /
//                     optimistic_retries / locked_fallbacks) also sum, and
//                     each shard folds its optimistic hits into ram_hits, so
//                     the aggregate invariant "every GET is exactly one of
//                     {optimistic_hits, locked_fallbacks}" (with
//                     optimistic_reads on) holds across the facade too,
//   item_count()   -- sum of per-shard index sizes,
//   slab_stats()   -- per-shard arena sums.
// Degraded (RAM-only) mode remains a per-shard property: a shard whose
// flushes fail stops flushing and heals on its own probe timer while the
// other shards keep using the SSD.
//
// Observability: the per-shard configs inherit ManagerConfig::latency from
// the facade config, so every shard records its read-path, flush and stage
// spans into the same LatencyRecorder (whose slots are per-*thread*, not
// per-shard -- concurrent shards never contend on a slot they don't share).
//
// Sizing: the configured RAM arena and SSD cap are split evenly over the
// shards (like the testbed splits cluster memory over servers). A shard is
// never given less than one slab page; the auto shard count (config.shards
// == 0, ~2x hardware threads) is additionally capped so every shard keeps
// at least kMinPagesPerShard pages, which keeps tiny-memory configs at one
// shard -- byte-for-byte the single-manager behaviour.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "ssd/io_engine.hpp"
#include "store/hybrid_manager.hpp"

namespace hykv::store {

using PendingRead = HybridSlabManager::PendingRead;

class ShardedManager {
 public:
  /// Shards below this many slab pages of arena stop paying for themselves
  /// (flush batches shrink and per-class carving waste dominates).
  static constexpr std::size_t kMinPagesPerShard = 4;
  static constexpr unsigned kMaxShards = 256;

  /// Resolves `config.shards` (0 = auto) to the power-of-two shard count a
  /// ShardedManager built from `config` will use.
  [[nodiscard]] static unsigned resolve_shards(const ManagerConfig& config);

  /// `storage` must outlive the manager; may be nullptr iff mode==kInMemory.
  /// All shards share the storage stack (one device, like one server).
  ShardedManager(ManagerConfig config, ssd::StorageStack* storage);

  ShardedManager(const ShardedManager&) = delete;
  ShardedManager& operator=(const ShardedManager&) = delete;

  // -- Per-key operations: forwarded to the key's shard. Signatures and
  //    semantics match HybridSlabManager exactly (drop-in replacement).
  StatusCode store(std::string_view key, std::span<const char> value,
                   std::uint32_t flags, std::int64_t expiration,
                   Condition cond = {}) {
    return shard_for(key).store(key, value, flags, expiration, cond);
  }
  StatusCode get(std::string_view key, std::vector<char>& out,
                 std::uint32_t& flags, std::uint64_t* cas = nullptr,
                 PendingRead* deferred = nullptr) {
    return shard_for(key).get(key, out, flags, cas, deferred);
  }
  /// Routes by the pinned key: the shard that deferred the read.
  StatusCode finish_read(PendingRead& read, std::vector<char>& out,
                         std::uint32_t& flags, std::uint64_t* cas = nullptr) {
    return shard_for(read.key).finish_read(read, out, flags, cas);
  }
  Result<std::uint64_t> update(std::string_view key, const Update& op) {
    return shard_for(key).update(key, op);
  }
  StatusCode del(std::string_view key) { return shard_for(key).del(key); }
  StatusCode touch(std::string_view key, std::int64_t expiration) {
    return shard_for(key).touch(key, expiration);
  }
  [[nodiscard]] bool exists(std::string_view key) const {
    return shard_for(key).exists(key);
  }

  // -- Cross-shard operations: aggregate per-shard results.
  void clear();
  [[nodiscard]] std::size_t item_count() const;
  [[nodiscard]] ManagerStats stats() const;
  [[nodiscard]] SlabStats slab_stats() const;
  void sync_storage();

  /// The configuration as given (pre-split limits), like a single manager
  /// reports the limits it was built with.
  [[nodiscard]] const ManagerConfig& config() const noexcept { return config_; }

  [[nodiscard]] unsigned num_shards() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  /// Direct shard access (tests / diagnostics).
  [[nodiscard]] HybridSlabManager& shard(unsigned i) { return *shards_[i]; }
  /// The shard `key` maps to (stable for the manager's lifetime).
  [[nodiscard]] unsigned shard_index(std::string_view key) const noexcept;

 private:
  [[nodiscard]] HybridSlabManager& shard_for(std::string_view key) {
    return *shards_[shard_index(key)];
  }
  [[nodiscard]] const HybridSlabManager& shard_for(std::string_view key) const {
    return *shards_[shard_index(key)];
  }

  // All facade state is immutable after construction -- no capability needed.
  // Mutable per-shard state (index, slabs, LRU, degraded/heal) lives behind
  // each HybridSlabManager's own mu_; the facade never adds a second lock.
  ManagerConfig config_;   ///< As given (un-split limits).
  unsigned shard_bits_ = 0;
  std::vector<std::unique_ptr<HybridSlabManager>> shards_;
};

}  // namespace hykv::store
