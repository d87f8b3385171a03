// Sharded storage tier: facade semantics (drop-in vs HybridSlabManager),
// shard resolution/sizing, cross-shard aggregation, per-shard degraded mode,
// and a multi-threaded stress test (ctest label `stress`; run under
// -DHYKV_SANITIZE=thread to race-check the per-shard locking).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "ssd/io_engine.hpp"
#include "store/sharded_manager.hpp"

namespace hykv::store {
namespace {

ManagerConfig base_config(StorageMode mode, unsigned shards) {
  ManagerConfig cfg;
  cfg.mode = mode;
  cfg.shards = shards;
  cfg.slab.slab_bytes = 64 << 10;
  cfg.slab.memory_limit = 8 << 20;
  cfg.slab.min_chunk = 64;
  return cfg;
}

TEST(ShardedManagerTest, ResolvesExplicitCountsToPowersOfTwo) {
  ManagerConfig cfg = base_config(StorageMode::kInMemory, 16);
  EXPECT_EQ(ShardedManager::resolve_shards(cfg), 16u);
  cfg.shards = 5;  // not a power of two: floor to 4
  EXPECT_EQ(ShardedManager::resolve_shards(cfg), 4u);
  cfg.shards = 1;
  EXPECT_EQ(ShardedManager::resolve_shards(cfg), 1u);
  cfg.shards = 100000;
  EXPECT_EQ(ShardedManager::resolve_shards(cfg), ShardedManager::kMaxShards);
}

TEST(ShardedManagerTest, AutoCountKeepsTinyArenasSingleShard) {
  // 2 pages of arena < kMinPagesPerShard: auto must not shard at all, so
  // tiny-memory configs behave byte-for-byte like the unsharded manager.
  ManagerConfig cfg = base_config(StorageMode::kInMemory, 0);
  cfg.slab.memory_limit = 2 * cfg.slab.slab_bytes;
  EXPECT_EQ(ShardedManager::resolve_shards(cfg), 1u);

  // A big arena resolves to >= 1 power-of-two bounded by hardware threads.
  ManagerConfig big = base_config(StorageMode::kInMemory, 0);
  big.slab.memory_limit = 256 << 20;
  const unsigned n = ShardedManager::resolve_shards(big);
  EXPECT_GE(n, 1u);
  EXPECT_EQ(n & (n - 1), 0u);
}

TEST(ShardedManagerTest, KeysSpreadOverShardsAndStayFindable) {
  ShardedManager m(base_config(StorageMode::kInMemory, 8), nullptr);
  ASSERT_EQ(m.num_shards(), 8u);

  const std::size_t kKeys = 512;
  std::vector<std::size_t> per_shard(8, 0);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = make_key(i);
    ASSERT_EQ(m.set(key, make_value(i, 128), 0, 0), StatusCode::kOk);
    ++per_shard[m.shard_index(key)];
  }
  EXPECT_EQ(m.item_count(), kKeys);
  // Every shard holds a non-trivial share (jenkins top bits spread well).
  for (unsigned s = 0; s < 8; ++s) {
    EXPECT_GT(per_shard[s], kKeys / 32) << "shard " << s;
    EXPECT_EQ(m.shard(s).item_count(), per_shard[s]);
  }

  std::vector<char> out;
  std::uint32_t flags = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(m.get(make_key(i), out, flags), StatusCode::kOk) << i;
    EXPECT_EQ(out, make_value(i, 128));
  }
  const auto stats = m.stats();
  EXPECT_EQ(stats.sets, kKeys);
  EXPECT_EQ(stats.ram_hits, kKeys);
  EXPECT_EQ(stats.misses, 0u);

  m.clear();
  EXPECT_EQ(m.item_count(), 0u);
  EXPECT_FALSE(m.exists(make_key(1)));
}

TEST(ShardedManagerTest, OpsMatchSingleManagerSemantics) {
  ShardedManager m(base_config(StorageMode::kInMemory, 4), nullptr);
  const std::string key = "op-key";

  EXPECT_EQ(m.replace(key, make_value(1, 64), 0, 0), StatusCode::kNotStored);
  EXPECT_EQ(m.add(key, make_value(1, 64), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.add(key, make_value(2, 64), 0, 0), StatusCode::kNotStored);
  EXPECT_EQ(m.replace(key, make_value(2, 64), 7, 0), StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  ASSERT_EQ(m.gets(key, out, flags, cas), StatusCode::kOk);
  EXPECT_EQ(flags, 7u);
  EXPECT_NE(cas, 0u);
  EXPECT_EQ(m.cas(key, make_value(3, 64), 0, 0, cas), StatusCode::kOk);
  EXPECT_EQ(m.cas(key, make_value(4, 64), 0, 0, cas), StatusCode::kNotStored);

  const std::string counter = "counter";
  ASSERT_EQ(m.set(counter, std::vector<char>{'4', '1'}, 0, 0), StatusCode::kOk);
  const auto up = m.incr(counter, 1);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), 42u);
  const auto down = m.decr(counter, 100);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), 0u);  // saturates

  ASSERT_EQ(m.append(key, std::vector<char>{'!'}), StatusCode::kOk);
  ASSERT_EQ(m.prepend(key, std::vector<char>{'>'}), StatusCode::kOk);
  ASSERT_EQ(m.get(key, out, flags), StatusCode::kOk);
  EXPECT_EQ(out.front(), '>');
  EXPECT_EQ(out.back(), '!');

  EXPECT_EQ(m.touch(key, 60), StatusCode::kOk);
  EXPECT_EQ(m.del(key), StatusCode::kOk);
  EXPECT_EQ(m.del(key), StatusCode::kNotFound);
}

TEST(ShardedManagerTest, HybridShardsFlushAndServeFromSsd) {
  sim::ScopedTimeScale scale(0.02);
  ssd::StorageStack stack(SsdProfile::sata(), ssd::PageCacheConfig{});
  ManagerConfig cfg = base_config(StorageMode::kHybrid, 4);
  cfg.slab.memory_limit = 512 << 10;  // tiny RAM: overflow to flash
  cfg.promote_on_hit = false;
  ShardedManager m(cfg, &stack);

  const std::size_t kKeys = 256;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk);
  }
  const auto stats = m.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.ssd_live_bytes, 0u);
  EXPECT_EQ(m.item_count(), kKeys);  // hybrid mode loses nothing

  std::vector<char> out;
  std::uint32_t flags = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(m.get(make_key(i), out, flags), StatusCode::kOk) << i;
    ASSERT_EQ(out, make_value(i, 4 << 10)) << i;
  }
  EXPECT_GT(m.stats().ssd_hits, 0u);
  EXPECT_EQ(m.stats().checksum_failures, 0u);
}

TEST(ShardedManagerTest, DegradedModeIsPerShardAndHeals) {
  sim::ScopedTimeScale scale(0.02);
  ssd::StorageStack stack(SsdProfile::sata(), ssd::PageCacheConfig{});
  ManagerConfig cfg = base_config(StorageMode::kHybrid, 4);
  cfg.slab.memory_limit = 512 << 10;
  cfg.degrade_after_io_errors = 2;
  cfg.heal_probe_after = sim::ms(10);
  ShardedManager m(cfg, &stack);

  stack.device().set_failed(true);
  for (std::size_t i = 0; i < 512; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk)
        << i;
  }
  auto stats = m.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.degraded_shards, 0u);
  EXPECT_LE(stats.degraded_shards, 4u);
  EXPECT_GT(stats.dropped_evictions, 0u);

  // Device heals; every degraded shard leaves RAM-only mode on its own
  // probe as traffic returns.
  stack.device().set_failed(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t i = 512; i < 1024; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk)
        << i;
  }
  stats = m.stats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.degraded_shards, 0u);
  EXPECT_GT(stats.flushes, 0u);
}

// ---------------------------------------------------------------------------
// Multi-threaded stress (ctest label `stress`): concurrent set/get/del/cas
// across keys that collide and don't collide on shards. Asserts per-key
// last-write-wins, aggregate stats consistency and no lost items.
TEST(ShardedManagerStress, ConcurrentMixedOpsKeepInvariants) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 8000;
  constexpr std::uint64_t kPrivateKeys = 64;   // per thread, disjoint
  constexpr std::uint64_t kSharedKeys = 16;    // contended across threads
  constexpr std::size_t kValueBytes = 256;

  ShardedManager m(base_config(StorageMode::kInMemory, 8), nullptr);

  // Shared keys carry a value derived only from the key, so whichever
  // writer wins, a reader must observe exactly that value (or a miss after
  // a delete) -- any torn/mixed value is a race.
  auto shared_key = [](std::uint64_t i) {
    return "shared-" + std::to_string(i);
  };
  std::atomic<std::uint64_t> total_gets{0};
  std::atomic<std::uint64_t> torn_reads{0};
  std::atomic<std::uint64_t> cas_wins{0};

  auto worker = [&](unsigned tid) {
    std::uint64_t gets = 0;
    std::vector<char> out;
    std::uint32_t flags = 0;
    // Per-thread last written value index for each private key.
    std::vector<std::uint64_t> last(kPrivateKeys, ~0ull);
    std::uint64_t x = 0x9e3779b97f4a7c15ull * (tid + 1);
    for (std::uint64_t op = 0; op < kOpsPerThread; ++op) {
      x = mix64(x + op);
      const auto dice = x % 10;
      if (dice < 3) {  // private set
        const std::uint64_t k = x % kPrivateKeys;
        const std::uint64_t version = op;
        ASSERT_EQ(m.set("t" + std::to_string(tid) + "-" + std::to_string(k),
                        make_value(version, kValueBytes), 0, 0),
                  StatusCode::kOk);
        last[k] = version;
      } else if (dice < 5) {  // private get: must see own last write
        const std::uint64_t k = x % kPrivateKeys;
        const auto code = m.get("t" + std::to_string(tid) + "-" + std::to_string(k),
                                out, flags);
        ++gets;
        if (last[k] == ~0ull) {
          ASSERT_EQ(code, StatusCode::kNotFound);
        } else {
          ASSERT_EQ(code, StatusCode::kOk);
          ASSERT_EQ(out, make_value(last[k], kValueBytes));
        }
      } else if (dice < 7) {  // shared set (value is a pure function of key)
        const std::uint64_t k = x % kSharedKeys;
        ASSERT_EQ(m.set(shared_key(k), make_value(k, kValueBytes), 0, 0),
                  StatusCode::kOk);
      } else if (dice < 9) {  // shared get: hit must match the canonical value
        const std::uint64_t k = x % kSharedKeys;
        const auto code = m.get(shared_key(k), out, flags);
        ++gets;
        if (code == StatusCode::kOk && out != make_value(k, kValueBytes)) {
          torn_reads.fetch_add(1);
        }
      } else if (dice == 9 && (x >> 8) % 4 == 0) {  // occasional shared delete
        (void)m.del(shared_key(x % kSharedKeys));
      } else {  // cas on a shared key: version races are allowed, tears not
        const std::uint64_t k = x % kSharedKeys;
        std::uint64_t cas = 0;
        const auto code = m.gets(shared_key(k), out, flags, cas);
        ++gets;  // gets() counts one lookup either way
        if (code == StatusCode::kOk) {
          const auto stored =
              m.cas(shared_key(k), make_value(k, kValueBytes), 0, 0, cas);
          if (stored == StatusCode::kOk) cas_wins.fetch_add(1);
        }
      }
    }
    total_gets.fetch_add(gets);
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_GT(cas_wins.load(), 0u);

  // Aggregate stats consistency: every get accounted as exactly one of
  // hit/miss (in-memory mode: no SSD hits, no expiry in play).
  const auto stats = m.stats();
  EXPECT_EQ(stats.ram_hits + stats.ssd_hits + stats.misses, total_gets.load());
  EXPECT_EQ(stats.expired, 0u);

  // No lost items: every private key a thread last wrote is present with
  // that exact value; item_count agrees with a full enumeration.
  std::vector<char> out;
  std::uint32_t flags = 0;
  std::size_t live = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::uint64_t k = 0; k < kPrivateKeys; ++k) {
      if (m.get("t" + std::to_string(t) + "-" + std::to_string(k), out, flags) ==
          StatusCode::kOk) {
        ++live;
      }
    }
  }
  for (std::uint64_t k = 0; k < kSharedKeys; ++k) {
    if (m.exists(shared_key(k))) ++live;
  }
  EXPECT_EQ(m.item_count(), live);
}

}  // namespace
}  // namespace hykv::store
