#include "store/sharded_manager.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "common/hash.hpp"

namespace hykv::store {
namespace {

unsigned floor_pow2(unsigned v) { return v == 0 ? 1 : std::bit_floor(v); }

}  // namespace

unsigned ShardedManager::resolve_shards(const ManagerConfig& config) {
  unsigned n = config.shards;
  if (n == 0) {
    n = 2 * std::max(1u, std::thread::hardware_concurrency());
    // Auto mode never shards below kMinPagesPerShard slab pages of arena
    // each: tiny-memory configs stay single-shard (identical behaviour to
    // the unsharded manager), big arenas shard for the cores.
    const std::size_t floor_bytes =
        std::max<std::size_t>(1, kMinPagesPerShard * config.slab.slab_bytes);
    const std::size_t cap = config.slab.memory_limit / floor_bytes;
    n = static_cast<unsigned>(
        std::min<std::size_t>(n, std::max<std::size_t>(1, cap)));
  }
  return std::min(floor_pow2(n), kMaxShards);
}

ShardedManager::ShardedManager(ManagerConfig config, ssd::StorageStack* storage)
    : config_(config) {
  const unsigned n = resolve_shards(config);
  shard_bits_ = static_cast<unsigned>(std::countr_zero(n));

  ManagerConfig per_shard = config;
  per_shard.shards = 1;
  // Split the arena and the SSD cap evenly, but never hand a shard less
  // than one slab page -- a shard that cannot hold a single page cannot
  // store anything at all.
  per_shard.slab.memory_limit = std::max(config.slab.memory_limit / n,
                                         config.slab.slab_bytes);
  if (config.ssd_limit != 0) {
    per_shard.ssd_limit =
        std::max<std::size_t>(config.ssd_limit / n, config.slab.slab_bytes);
  }
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<HybridSlabManager>(per_shard, storage));
  }
}

unsigned ShardedManager::shard_index(std::string_view key) const noexcept {
  if (shard_bits_ == 0) return 0;
  // Top bits of the assoc-table hash: the per-shard HashMap buckets on the
  // low bits, so every shard still uses its full bucket range.
  return jenkins_oaat(key) >> (32u - shard_bits_);
}

void ShardedManager::clear() {
  for (auto& shard : shards_) shard->clear();
}

std::size_t ShardedManager::item_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->item_count();
  return total;
}

ManagerStats ShardedManager::stats() const {
  ManagerStats total;
  for (const auto& shard : shards_) metrics::merge(total, shard->stats());
  return total;
}

SlabStats ShardedManager::slab_stats() const {
  SlabStats total;
  for (const auto& shard : shards_) {
    const SlabStats s = shard->slab_stats();
    total.slab_pages += s.slab_pages;
    total.reserved_bytes += s.reserved_bytes;
    total.used_chunks += s.used_chunks;
    total.free_chunks += s.free_chunks;
  }
  return total;
}

void ShardedManager::sync_storage() {
  // The shards share one storage stack; one sync drains it for all of them.
  shards_.front()->sync_storage();
}

}  // namespace hykv::store
