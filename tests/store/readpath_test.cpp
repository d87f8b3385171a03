// Non-blocking read path: optimistic seqlock GETs against the locked path.
//
// Covers the four contracts the tentpole claims:
//   1. Agreement -- under concurrent SET/GET/DEL/eviction/flush churn, every
//      optimistic result is a value some writer actually stored for that key
//      (no torn bytes, no cross-key bleed), on both the in-memory and the
//      hybrid (SSD flush) configurations. Run under TSan/ASan via the
//      `stress` ctest label, this is also the data-race/use-after-free proof
//      for the seqlock + EBR machinery.
//   2. Torn-read regression -- a single hot key rewritten in place between
//      two uniform patterns: if version validation were removed, readers
//      would observe mixed-pattern values. Fails against a build that skips
//      the v1==v2 check.
//   3. Counter balance -- with optimistic reads on, every GET is exactly one
//      of {optimistic_hit, locked_fallback}.
//   4. Byte-identical semantics -- a deterministic op sequence produces
//      identical get/gets results (bytes, flags, CAS tokens, status codes)
//      with optimistic_reads on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "store/hybrid_manager.hpp"
#include "store/sharded_manager.hpp"

namespace hykv::store {
namespace {

ssd::PageCacheConfig test_cache() {
  ssd::PageCacheConfig cfg;
  cfg.dirty_high_watermark = 4 << 20;
  cfg.dirty_low_watermark = 2 << 20;
  cfg.memory_limit = 16 << 20;
  return cfg;
}

ManagerConfig small_config(StorageMode mode, bool optimistic) {
  ManagerConfig cfg;
  cfg.mode = mode;
  cfg.slab.slab_bytes = 64 << 10;
  cfg.slab.memory_limit = 512 << 10;  // tiny RAM: constant eviction/flush
  cfg.slab.min_chunk = 64;
  cfg.optimistic_reads = optimistic;
  return cfg;
}

class ReadPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

// Self-validating payload: key index + generation stamped through the whole
// value, so any torn read or cross-key bleed breaks the pattern.
std::vector<char> stamped_value(std::uint64_t key, std::uint32_t gen,
                                std::size_t size) {
  std::vector<char> v(size);
  const std::uint64_t seed = key * 0x9e3779b97f4a7c15ull + gen;
  for (std::size_t i = 0; i < size; ++i) {
    v[i] = static_cast<char>((seed >> ((i % 8) * 8)) & 0xff);
  }
  return v;
}

bool value_is_some_generation(std::uint64_t key, std::span<const char> got,
                              std::uint32_t max_gen) {
  for (std::uint32_t gen = 0; gen <= max_gen; ++gen) {
    const auto want = stamped_value(key, gen, got.size());
    if (std::memcmp(got.data(), want.data(), got.size()) == 0) return true;
  }
  return false;
}

void churn_agreement(StorageMode mode, ssd::StorageStack* storage) {
  HybridSlabManager m(small_config(mode, /*optimistic=*/true), storage);
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint32_t kMaxGen = 16;
  constexpr std::size_t kValueBytes = 512;

  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(m.store(make_key(k), stamped_value(k, 0, kValueBytes),
                    static_cast<std::uint32_t>(k), 0),
              StatusCode::kOk);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> good_reads{0};

  std::thread writer([&] {
    Rng rng(7);
    for (std::uint32_t gen = 1; !stop.load(std::memory_order_relaxed);
         gen = gen % kMaxGen + 1) {
      const std::uint64_t k = rng.next_below(kKeys);
      switch (rng.next_below(8)) {
        case 0:
          (void)m.del(make_key(k));
          break;
        default:
          (void)m.store(make_key(k), stamped_value(k, gen, kValueBytes),
                      static_cast<std::uint32_t>(k), 0);
          break;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      std::vector<char> out;
      std::uint32_t flags = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t k = rng.next_below(kKeys);
        const StatusCode code = m.get(make_key(k), out, flags);
        if (code != StatusCode::kOk) continue;  // deleted / dropped: fine
        bool ok_read = out.size() == kValueBytes &&
                       flags == static_cast<std::uint32_t>(k) &&
                       value_is_some_generation(k, out, kMaxGen);
        if (!ok_read) {
          violations.fetch_add(1, std::memory_order_relaxed);
        } else {
          good_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  while (good_reads.load() < 20000 && violations.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u)
      << "optimistic GET returned bytes no writer ever stored";
  EXPECT_GE(good_reads.load(), 20000u);
  const auto stats = m.stats();
  EXPECT_GT(stats.optimistic_hits, 0u) << "lock-free path never engaged";
}

TEST_F(ReadPathTest, AgreementUnderChurnInMemory) {
  churn_agreement(StorageMode::kInMemory, nullptr);
}

TEST_F(ReadPathTest, AgreementUnderChurnHybridWithFlush) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  churn_agreement(StorageMode::kHybrid, &storage);
}

TEST_F(ReadPathTest, TornReadRegression) {
  // One hot key rewritten in place between two uniform byte patterns. The
  // seqlock version bracket is the ONLY thing preventing a reader from
  // returning half-'A'/half-'B' bytes: remove the v1==v2 validation in
  // try_optimistic_get and this test fails.
  HybridSlabManager m(small_config(StorageMode::kInMemory, true), nullptr);
  constexpr std::size_t kValueBytes = 4096;  // long copy: wide tear window
  const std::vector<char> a(kValueBytes, 'A');
  const std::vector<char> b(kValueBytes, 'B');
  ASSERT_EQ(m.store("hot", a, 0, 0), StatusCode::kOk);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    bool flip = false;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)m.store("hot", flip ? a : b, 0, 0);
      flip = !flip;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<char> out;
      std::uint32_t flags = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (m.get("hot", out, flags) != StatusCode::kOk) continue;
        reads.fetch_add(1, std::memory_order_relaxed);
        if (out.size() != kValueBytes) {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const char first = out[0];
        if (first != 'A' && first != 'B') {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (const char c : out) {
          if (c != first) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  while (reads.load() < 20000 && torn.load() == 0) std::this_thread::yield();
  stop.store(true);
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "seqlock validation let a torn value through";
  EXPECT_GE(reads.load(), 20000u);
}

TEST_F(ReadPathTest, CounterBalanceEveryGetIsHitOrFallback) {
  HybridSlabManager m(small_config(StorageMode::kInMemory, true), nullptr);
  constexpr std::uint64_t kKeys = 32;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(m.store(make_key(k), make_value(k, 128), 0, 0), StatusCode::kOk);
  }
  constexpr std::uint64_t kGets = 5000;
  std::vector<char> out;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  for (std::uint64_t i = 0; i < kGets; ++i) {
    // Mix hits, misses, and gets(): all must land in exactly one bucket.
    if (i % 3 == 0) {
      (void)m.get(make_key(i % (kKeys + 8)), out, flags, &cas);
    } else {
      (void)m.get(make_key(i % (kKeys + 8)), out, flags);
    }
  }
  const auto stats = m.stats();
  EXPECT_EQ(stats.optimistic_hits + stats.locked_fallbacks, kGets)
      << "hits=" << stats.optimistic_hits
      << " fallbacks=" << stats.locked_fallbacks;
  EXPECT_GT(stats.optimistic_hits, 0u);
  EXPECT_GT(stats.locked_fallbacks, 0u);  // the misses at least
}

TEST_F(ReadPathTest, ByteIdenticalResultsOptimisticOnAndOff) {
  // The same deterministic op sequence against both configurations must
  // produce identical statuses, bytes, flags, and CAS tokens.
  auto run = [&](bool optimistic) {
    HybridSlabManager m(small_config(StorageMode::kInMemory, optimistic),
                        nullptr);
    std::string trace;
    Rng rng(42);
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t k = rng.next_below(48);
      std::vector<char> out;
      std::uint32_t flags = 0;
      std::uint64_t cas = 0;
      switch (rng.next_below(6)) {
        case 0:
        case 1:
          (void)m.store(make_key(k), make_value(k ^ rng.next_below(4), 200),
                      static_cast<std::uint32_t>(k), 0);
          break;
        case 2:
          (void)m.del(make_key(k));
          break;
        case 3: {
          const StatusCode code = m.get(make_key(k), out, flags, &cas);
          trace += std::to_string(static_cast<int>(code));
          if (ok(code)) {
            trace.append(out.data(), out.size());
            trace += std::to_string(flags) + "/" + std::to_string(cas);
          }
          break;
        }
        default: {
          const StatusCode code = m.get(make_key(k), out, flags);
          trace += std::to_string(static_cast<int>(code));
          if (ok(code)) {
            trace.append(out.data(), out.size());
            trace += std::to_string(flags);
          }
          break;
        }
      }
    }
    return trace;
  };
  const std::string with = run(true);
  const std::string without = run(false);
  EXPECT_EQ(with, without);
}

TEST_F(ReadPathTest, TouchedFlagGrantsSecondChanceOverLru) {
  // A key read only via the lock-free path (which cannot move it in the LRU
  // list) must survive an eviction wave that claims untouched tail items.
  ManagerConfig cfg = small_config(StorageMode::kInMemory, true);
  HybridSlabManager m(cfg, nullptr);
  constexpr std::size_t kValueBytes = 1 << 10;
  // Fill RAM exactly: more sets will evict from the tail.
  std::uint64_t count = 0;
  while (m.store(make_key(count), make_value(count, kValueBytes), 0, 0) ==
             StatusCode::kOk &&
         m.stats().dropped_evictions == 0) {
    ++count;
  }
  ASSERT_GT(count, 8u);
  // The fill loop exited after the first eviction, which claimed the coldest
  // key(s); find the coldest survivor -- the current LRU tail -- and read it
  // optimistically, which sets only its touched flag (no LRU move).
  std::uint64_t canary = 0;
  while (!m.exists(make_key(canary))) ++canary;
  std::vector<char> out;
  std::uint32_t flags = 0;
  const std::uint64_t hits_before = m.stats().optimistic_hits;
  ASSERT_EQ(m.get(make_key(canary), out, flags), StatusCode::kOk);
  ASSERT_GT(m.stats().optimistic_hits, hits_before)
      << "canary read did not take the lock-free path";
  ASSERT_EQ(m.store(make_key(count + 1), make_value(count + 1, kValueBytes), 0, 0),
            StatusCode::kOk);
  // The second chance rescued the canary; some other cold key was dropped.
  EXPECT_TRUE(m.exists(make_key(canary)))
      << "touched tail item was evicted despite its second chance";
}

TEST_F(ReadPathTest, ShardedFacadeAggregatesReadPathCounters) {
  ManagerConfig cfg = small_config(StorageMode::kInMemory, true);
  cfg.shards = 4;
  ShardedManager m(cfg, nullptr);
  for (std::uint64_t k = 0; k < 64; ++k) {
    ASSERT_EQ(m.store(make_key(k), make_value(k, 128), 0, 0), StatusCode::kOk);
  }
  std::vector<char> out;
  std::uint32_t flags = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      ASSERT_EQ(m.get(make_key(k), out, flags), StatusCode::kOk);
    }
  }
  const auto stats = m.stats();
  EXPECT_EQ(stats.optimistic_hits + stats.locked_fallbacks, 4u * 64u);
  EXPECT_GT(stats.optimistic_hits, 0u);
  // Optimistic hits fold into ram_hits per shard, so the facade's ram_hits
  // stays the all-paths total.
  EXPECT_GE(stats.ram_hits, stats.optimistic_hits);
}

}  // namespace
}  // namespace hykv::store
