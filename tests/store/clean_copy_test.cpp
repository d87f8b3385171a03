// Clean SSD copies (DESIGN.md §5.1): an item promoted back to RAM
// opportunistically keeps its SSD record until the RAM item is mutated, so
// evicting it unchanged re-points the index at the record and writes
// nothing; every mutation drops the copy, so the SSD never serves stale
// bytes. The concurrent-promotion case runs two threads, so the suite
// carries the `stress` label for the sanitizer CI jobs.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "store/hybrid_manager.hpp"

namespace hykv::store {
namespace {

constexpr std::size_t kSize = 30 << 10;
/// Keys flushed to the SSD and promoted back; key 0 ends at the LRU tail.
constexpr std::uint64_t kPromoted = 16;
/// Keys set in all: ~1.8x the 2 MB of RAM, so [0, kPromoted) reach the SSD.
constexpr std::uint64_t kFilled = 120;

ssd::PageCacheConfig test_cache() {
  ssd::PageCacheConfig cfg;
  cfg.dirty_high_watermark = 4 << 20;
  cfg.dirty_low_watermark = 2 << 20;
  cfg.memory_limit = 16 << 20;
  return cfg;
}

/// Hybrid, direct I/O (every flush is a synchronous device write, so the
/// device counters move exactly when a flush writes), opportunistic
/// promotion.
ManagerConfig hybrid_config() {
  ManagerConfig cfg;
  cfg.mode = StorageMode::kHybrid;
  cfg.slab.slab_bytes = 256 << 10;
  cfg.slab.memory_limit = 2 << 20;
  return cfg;
}

struct Read {
  StatusCode code = StatusCode::kOk;
  std::vector<char> value;
  std::uint64_t cas = 0;
};

Read read(HybridSlabManager& m, const std::string& key) {
  Read r;
  std::uint32_t flags = 0;
  r.code = m.get(key, r.value, flags, &r.cas);
  return r;
}

class CleanCopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }

  /// Fills past RAM, deletes every key RAM could still hold, then GETs keys
  /// [0, kPromoted) back from the SSD: RAM holds only their clean copies,
  /// and promoted_ what those GETs returned. `dirty_first` keys are set
  /// before the promotions, so they sit behind the copies at the LRU tail.
  /// (A RAM hit would give its key a second chance at eviction, so tests
  /// compare against promoted_ instead of reading a copy again.)
  void promote_cold_keys(HybridSlabManager& m, std::uint64_t dirty_first = 0) {
    for (std::uint64_t i = 0; i < kFilled; ++i) {
      ASSERT_EQ(m.store(make_key(i), make_value(i, kSize), 0, 0), StatusCode::kOk);
    }
    for (std::uint64_t i = kPromoted; i < kFilled; ++i) {
      ASSERT_EQ(m.del(make_key(i)), StatusCode::kOk);
    }
    for (std::uint64_t i = 0; i < dirty_first; ++i) {
      ASSERT_EQ(m.store(make_key(1000 + i), make_value(1000 + i, kSize), 0, 0),
                StatusCode::kOk);
    }
    ASSERT_EQ(m.stats().promotions, 0u);
    for (std::uint64_t i = 0; i < kPromoted; ++i) {
      promoted_.push_back(read(m, make_key(i)));
      ASSERT_EQ(promoted_.back().code, StatusCode::kOk) << i;
      ASSERT_EQ(promoted_.back().value, make_value(i, kSize)) << i;
    }
    ASSERT_EQ(m.stats().promotions, kPromoted);
    ASSERT_EQ(m.stats().ssd_hits, kPromoted);
  }

  /// Sets fresh keys until `done()` holds (bounded by twice the RAM).
  static void set_fresh_until(HybridSlabManager& m, std::uint64_t& next,
                              const std::function<bool()>& done) {
    for (int n = 0; n < 2 * static_cast<int>(kFilled) && !done(); ++n, ++next) {
      ASSERT_EQ(m.store(make_key(next), make_value(next, kSize), 0, 0),
                StatusCode::kOk);
    }
    ASSERT_TRUE(done());
  }

  std::vector<Read> promoted_;
};

TEST_F(CleanCopyTest, EvictingAnUnchangedPromotionWritesNothing) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(hybrid_config(), &storage);
  promote_cold_keys(m);
  const Read& before = promoted_[0];
  const ssd::DeviceStats device = storage.device().stats();
  const ManagerStats stats = m.stats();

  // Fresh keys fill the free chunks, then evict the LRU tail: clean copies.
  std::uint64_t next = 5000;
  set_fresh_until(m, next, [&] { return m.stats().clean_evictions > 0; });
  EXPECT_EQ(storage.device().stats().writes, device.writes);
  EXPECT_EQ(storage.device().stats().written_bytes, device.written_bytes);
  EXPECT_EQ(m.stats().flushes, stats.flushes);
  EXPECT_EQ(m.stats().flushed_bytes, stats.flushed_bytes);

  // Key 0 is SSD-resident again and reads back the same bytes and CAS.
  const Read after = read(m, make_key(0));
  ASSERT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(m.stats().ssd_hits, stats.ssd_hits + 1);
  EXPECT_EQ(after.value, before.value);
  EXPECT_EQ(after.cas, before.cas);
  EXPECT_EQ(m.stats().checksum_failures, 0u);
}

TEST_F(CleanCopyTest, InPlaceOverwriteDropsTheCopy) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(hybrid_config(), &storage);
  promote_cold_keys(m);
  // Same size, same slab class: the in-place fast path.
  const std::vector<char> fresh = make_value(777, kSize);
  const ssd::DeviceStats device = storage.device().stats();
  const std::size_t used = m.slab_stats().used_chunks;
  ASSERT_EQ(m.store(make_key(0), fresh, 0, 0), StatusCode::kOk);
  ASSERT_EQ(m.slab_stats().used_chunks, used);  // in place: no new chunk

  // Evict until a flush writes: key 0 is the first dirty item from the tail.
  std::uint64_t next = 5000;
  set_fresh_until(m, next, [&] {
    return storage.device().stats().writes > device.writes;
  });
  EXPECT_GT(storage.device().stats().written_bytes, device.written_bytes);
  const std::uint64_t ssd_hits = m.stats().ssd_hits;
  const Read after = read(m, make_key(0));
  ASSERT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(m.stats().ssd_hits, ssd_hits + 1);  // read back from the SSD
  EXPECT_EQ(after.value, fresh);
  EXPECT_GT(after.cas, promoted_[0].cas);
}

TEST_F(CleanCopyTest, TouchDropsTheCopy) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(hybrid_config(), &storage);
  promote_cold_keys(m);
  // Key 0 is stored without expiry; the touch expires it at once. The LRU
  // does not move, so key 0 stays the tail victim.
  ASSERT_EQ(m.touch(make_key(0), -1), StatusCode::kOk);
  const ssd::DeviceStats device = storage.device().stats();

  std::uint64_t next = 5000;
  set_fresh_until(m, next, [&] {
    return storage.device().stats().writes > device.writes;
  });
  const std::uint64_t expired = m.stats().expired;
  EXPECT_EQ(read(m, make_key(0)).code, StatusCode::kNotFound);
  EXPECT_EQ(m.stats().expired, expired + 1);
  EXPECT_TRUE(ok(read(m, make_key(1)).code));  // an untouched copy still serves
}

TEST_F(CleanCopyTest, ConcurrentDeferredGetsPromoteOnce) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = hybrid_config();
  // Retired chunks return to the allocator at once, so used_chunks counts
  // exactly the chunks items hold.
  cfg.optimistic_reads = false;
  HybridSlabManager m(cfg, &storage);
  for (std::uint64_t i = 0; i < kFilled; ++i) {
    ASSERT_EQ(m.store(make_key(i), make_value(i, kSize), 0, 0), StatusCode::kOk);
  }
  for (std::uint64_t i = kPromoted; i < kFilled; ++i) {
    ASSERT_EQ(m.del(make_key(i)), StatusCode::kOk);
  }
  const std::string key = make_key(0);
  HybridSlabManager::PendingRead first;
  HybridSlabManager::PendingRead second;
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get(key, out, flags, nullptr, &first), StatusCode::kInProgress);
  ASSERT_EQ(m.get(key, out, flags, nullptr, &second), StatusCode::kInProgress);
  ASSERT_EQ(first.record, second.record);
  const std::size_t used = m.slab_stats().used_chunks;

  std::vector<char> out_a;
  std::vector<char> out_b;
  std::uint64_t cas_a = 0;
  std::uint64_t cas_b = 0;
  std::thread a([&] {
    std::uint32_t f = 0;
    EXPECT_EQ(m.finish_read(first, out_a, f, &cas_a), StatusCode::kOk);
  });
  std::thread b([&] {
    std::uint32_t f = 0;
    EXPECT_EQ(m.finish_read(second, out_b, f, &cas_b), StatusCode::kOk);
  });
  a.join();
  b.join();
  EXPECT_EQ(out_a, make_value(0, kSize));
  EXPECT_EQ(out_b, out_a);
  EXPECT_EQ(cas_a, cas_b);
  EXPECT_EQ(m.stats().promotions, 1u);
  EXPECT_EQ(m.slab_stats().used_chunks, used + 1);

  // The one promoted item is evicted cleanly and still reads back.
  std::uint64_t next = 5000;
  set_fresh_until(m, next, [&] { return m.stats().clean_evictions > 0; });
  const Read after = read(m, key);
  ASSERT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(after.value, out_a);
}

TEST_F(CleanCopyTest, DegradedEvictionKeepsACleanVictim) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = hybrid_config();
  cfg.degrade_after_io_errors = 1;
  cfg.heal_probe_after = sim::ms(60'000);  // stay degraded for the test
  HybridSlabManager m(cfg, &storage);
  // One batch of dirty keys at the tail, the clean copies ahead of them.
  promote_cold_keys(m, /*dirty_first=*/8);

  // The first flush fails and degrades the store; from then on eviction
  // drops the tail (drop_one) instead of flushing it.
  storage.device().set_failed(true);
  std::uint64_t next = 5000;
  set_fresh_until(m, next, [&] { return m.stats().clean_evictions > 0; });
  EXPECT_TRUE(m.stats().degraded);
  EXPECT_GT(m.stats().dropped_evictions, 0u);  // the dirty batch was lost
  const std::uint64_t dropped = m.stats().dropped_evictions;

  storage.device().set_failed(false);
  const Read after = read(m, make_key(0));
  ASSERT_EQ(after.code, StatusCode::kOk);
  EXPECT_EQ(after.value, make_value(0, kSize));
  EXPECT_EQ(m.stats().dropped_evictions, dropped);
}

}  // namespace
}  // namespace hykv::store
