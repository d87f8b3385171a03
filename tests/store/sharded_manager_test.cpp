// Sharded storage tier: facade semantics (drop-in vs HybridSlabManager),
// shard resolution/sizing, cross-shard aggregation, per-shard degraded mode,
// and multi-threaded stress tests (ctest label `stress`; run under
// -DHYKV_SANITIZE=thread to race-check the per-shard locking): mixed ops,
// and conditional and read-modify-write ops that must be atomic per key.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
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
    ASSERT_EQ(m.store(key, make_value(i, 128), 0, 0), StatusCode::kOk);
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

  EXPECT_EQ(m.store(key, make_value(1, 64), 0, 0, {Condition::kPresent}),
            StatusCode::kNotStored);
  EXPECT_EQ(m.store(key, make_value(1, 64), 0, 0, {Condition::kAbsent}),
            StatusCode::kOk);
  EXPECT_EQ(m.store(key, make_value(2, 64), 0, 0, {Condition::kAbsent}),
            StatusCode::kNotStored);
  EXPECT_EQ(m.store(key, make_value(2, 64), 7, 0, {Condition::kPresent}),
            StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  ASSERT_EQ(m.get(key, out, flags, &cas), StatusCode::kOk);
  EXPECT_EQ(flags, 7u);
  EXPECT_NE(cas, 0u);
  EXPECT_EQ(m.store(key, make_value(3, 64), 0, 0, {Condition::kVersion, cas}),
            StatusCode::kOk);
  EXPECT_EQ(m.store(key, make_value(4, 64), 0, 0, {Condition::kVersion, cas}),
            StatusCode::kNotStored);

  const std::string counter = "counter";
  ASSERT_EQ(m.store(counter, std::vector<char>{'4', '1'}, 0, 0), StatusCode::kOk);
  const auto up = m.update(counter, {Update::kIncr, {}, 1});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), 42u);
  const auto down = m.update(counter, {Update::kDecr, {}, 100});
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), 0u);  // saturates

  ASSERT_EQ(m.update(key, {Update::kAppend, std::vector<char>{'!'}}).status(),
            StatusCode::kOk);
  ASSERT_EQ(m.update(key, {Update::kPrepend, std::vector<char>{'>'}}).status(),
            StatusCode::kOk);
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
    ASSERT_EQ(m.store(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk);
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
    ASSERT_EQ(m.store(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk)
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
    ASSERT_EQ(m.store(make_key(i), make_value(i, 4 << 10), 0, 0), StatusCode::kOk)
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
        ASSERT_EQ(m.store("t" + std::to_string(tid) + "-" + std::to_string(k),
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
        ASSERT_EQ(m.store(shared_key(k), make_value(k, kValueBytes), 0, 0),
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
        const auto code = m.get(shared_key(k), out, flags, &cas);
        ++gets;  // a get with a CAS counts one lookup either way
        if (code == StatusCode::kOk) {
          const auto stored =
              m.store(shared_key(k), make_value(k, kValueBytes), 0, 0,
                      {Condition::kVersion, cas});
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

// Conditional and read-modify-write ops racing on one key of a one-shard
// store: four threads released together by a start barrier. Each op must be
// atomic -- a check (or read) and its commit with no writer in between.
constexpr unsigned kRmwThreads = 4;

ShardedManager one_shard(bool optimistic_reads = true,
                         sim::Nanos modelled_op_cost = sim::Nanos{0}) {
  ManagerConfig cfg = base_config(StorageMode::kInMemory, 1);
  cfg.optimistic_reads = optimistic_reads;
  cfg.modelled_op_cost = modelled_op_cost;
  return ShardedManager(cfg, nullptr);
}

// Releases kRmwThreads threads per generation at the same instant. It spins
// rather than sleeping in a futex, so no thread gets a head start while the
// others wake up -- a head start would let it finish its op unraced.
class SpinGate {
 public:
  void arrive_and_wait() {
    const unsigned target =
        (arrived_.fetch_add(1) / kRmwThreads + 1) * kRmwThreads;
    while (arrived_.load() < target) std::this_thread::yield();
  }

 private:
  std::atomic<unsigned> arrived_{0};
};

template <typename Fn>
void run_together(Fn&& body) {
  SpinGate start;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kRmwThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(ShardedManagerStress, ConcurrentIncrsSumExactly) {
  constexpr std::uint64_t kIncrsPerThread = 50000;
  ShardedManager m = one_shard();
  ASSERT_EQ(m.store("ctr", std::vector<char>{'0'}, 0, 0), StatusCode::kOk);
  std::atomic<std::uint64_t> failed{0};
  run_together([&](unsigned) {
    for (std::uint64_t i = 0; i < kIncrsPerThread; ++i) {
      if (!m.update("ctr", {Update::kIncr, {}, 1}).ok()) failed.fetch_add(1);
    }
  });
  EXPECT_EQ(failed.load(), 0u);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("ctr", out, flags), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()),
            std::to_string(kRmwThreads * kIncrsPerThread));
}

// Counts the rounds in which not exactly one of the threads' adds of that
// round's fresh key answered kOk.
unsigned rounds_without_one_winner(ShardedManager& m, unsigned rounds,
                                   std::size_t value_bytes) {
  std::vector<std::atomic<unsigned>> winners(rounds);
  SpinGate round;
  run_together([&](unsigned tid) {
    for (unsigned r = 0; r < rounds; ++r) {
      round.arrive_and_wait();  // every thread adds round r's key together
      const std::string key = "fresh-" + std::to_string(r);
      if (m.store(key, make_value(tid, value_bytes), 0, 0,
                  {Condition::kAbsent}) == StatusCode::kOk) {
        winners[r].fetch_add(1);
      }
    }
  });
  return static_cast<unsigned>(
      std::count_if(winners.begin(), winners.end(),
                    [](const auto& w) { return w.load() != 1; }));
}

TEST(ShardedManagerStress, ConcurrentAddsHaveOneWinner) {
  constexpr unsigned kRounds = 500;
  {
    ShardedManager m = one_shard();
    EXPECT_EQ(rounds_without_one_winner(m, kRounds, 32), 0u) << "in memory";
  }
  // Hybrid, with RAM for four items: from the fifth round on, the winner's
  // allocation flushes an item and drops the shard lock for the SSD write,
  // so the others check the key while the winner has not yet committed.
  // Only the re-check after the allocation keeps them out -- on any host,
  // with or without a second core.
  sim::ScopedTimeScale scale(1.0);
  ssd::StorageStack stack(SsdProfile::sata(), ssd::PageCacheConfig{});
  ManagerConfig cfg = base_config(StorageMode::kHybrid, 1);
  cfg.slab.memory_limit = 4 * cfg.slab.slab_bytes;
  ShardedManager m(cfg, &stack);
  EXPECT_EQ(rounds_without_one_winner(m, kRounds, 40 << 10), 0u) << "hybrid";
  EXPECT_GT(m.stats().flushes, 0u);
}

TEST(ShardedManagerStress, ConcurrentAppendsKeepEveryByte) {
  constexpr std::size_t kAppendsPerThread = 500;
  // A modelled under-lock cost makes each commit sleep with the lock held,
  // so the other threads read the value meanwhile: their read and commit
  // interleave on any host, as they would on several cores.
  ShardedManager m = one_shard(true, sim::us(5));
  ASSERT_EQ(m.store("log", std::vector<char>{'>'}, 0, 0), StatusCode::kOk);
  run_together([&](unsigned tid) {
    const char mine = static_cast<char>('a' + tid);
    for (std::size_t i = 0; i < kAppendsPerThread; ++i) {
      ASSERT_EQ(m.update("log", {Update::kAppend, {&mine, 1}}).status(),
                StatusCode::kOk);
    }
  });
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("log", out, flags), StatusCode::kOk);
  ASSERT_EQ(out.size(), 1 + kRmwThreads * kAppendsPerThread);
  EXPECT_EQ(out.front(), '>');
  for (unsigned t = 0; t < kRmwThreads; ++t) {
    EXPECT_EQ(std::count(out.begin(), out.end(), static_cast<char>('a' + t)),
              static_cast<std::ptrdiff_t>(kAppendsPerThread));
  }
}

TEST(ShardedManagerStress, GetCasPairsAreConsistent) {
  // Two writers store unique values (alternating slab classes, so stores
  // both overwrite in place and relocate); two readers take (value, CAS)
  // pairs. A value is written once, so it must always come back with the
  // same CAS -- on the lock-free path and on the locked one.
  constexpr unsigned kOpsPerThread = 4000;
  for (const bool optimistic : {true, false}) {
    ShardedManager m = one_shard(optimistic);
    ASSERT_EQ(m.store("k", std::vector<char>{'-'}, 0, 0), StatusCode::kOk);
    std::vector<std::map<std::string, std::uint64_t>> seen(kRmwThreads);
    std::atomic<std::uint64_t> mismatches{0};
    run_together([&](unsigned tid) {
      std::vector<char> out;
      std::uint32_t flags = 0;
      for (unsigned i = 0; i < kOpsPerThread; ++i) {
        if (tid < 2) {
          std::string value = std::to_string(tid) + "-" + std::to_string(i);
          value.resize(i % 2 == 0 ? 16 : 2000, '.');
          ASSERT_EQ(m.store("k", value, 0, 0), StatusCode::kOk);
          continue;
        }
        std::uint64_t cas = 0;
        ASSERT_EQ(m.get("k", out, flags, &cas), StatusCode::kOk);
        const auto [it, fresh] =
            seen[tid].emplace(std::string(out.begin(), out.end()), cas);
        if (!fresh && it->second != cas) mismatches.fetch_add(1);
      }
    });
    std::map<std::string, std::uint64_t> all;
    for (const auto& reader : seen) {
      for (const auto& [value, cas] : reader) {
        const auto [it, fresh] = all.emplace(value, cas);
        if (!fresh && it->second != cas) mismatches.fetch_add(1);
      }
    }
    EXPECT_EQ(mismatches.load(), 0u) << "optimistic_reads=" << optimistic;

    // With no writer in between, the token of a get is accepted by a cas.
    std::vector<char> out;
    std::uint32_t flags = 0;
    std::uint64_t cas = 0;
    ASSERT_EQ(m.get("k", out, flags, &cas), StatusCode::kOk);
    EXPECT_EQ(m.store("k", std::vector<char>{'+'}, 0, 0,
                      {Condition::kVersion, cas}),
              StatusCode::kOk);
  }
}

}  // namespace
}  // namespace hykv::store
