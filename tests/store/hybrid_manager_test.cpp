#include "store/hybrid_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"

namespace hykv::store {
namespace {

ssd::PageCacheConfig test_cache() {
  ssd::PageCacheConfig cfg;
  cfg.dirty_high_watermark = 4 << 20;
  cfg.dirty_low_watermark = 2 << 20;
  cfg.memory_limit = 16 << 20;
  return cfg;
}

ManagerConfig base_config(StorageMode mode) {
  ManagerConfig cfg;
  cfg.mode = mode;
  cfg.slab.slab_bytes = 256 << 10;
  cfg.slab.memory_limit = 2 << 20;  // 2 MB RAM
  return cfg;
}

/// Where a key's flushed record ([header][key][value]) sits on the device;
/// `id` is kInvalidExtent when no extent holds it.
struct RecordLocation {
  ssd::ExtentId id = ssd::kInvalidExtent;
  std::size_t record_offset = 0;
  std::size_t value_offset = 0;
  std::size_t extent_bytes = 0;
};

/// Finds a key's record by its key+value bytes, behind the store's back.
RecordLocation locate_record(ssd::StorageStack& storage, const std::string& key,
                             const std::vector<char>& value) {
  std::vector<char> needle(key.begin(), key.end());
  needle.insert(needle.end(), value.begin(), value.end());
  for (ssd::ExtentId id = 1;; ++id) {
    const std::size_t bytes = storage.device().extent_size(id);
    if (bytes == 0) return {};
    std::vector<char> data(bytes);
    if (storage.device().read_raw(id, 0, data) != StatusCode::kOk) return {};
    const auto at = std::search(data.begin(), data.end(), needle.begin(), needle.end());
    if (at == data.end()) continue;
    const auto key_offset = static_cast<std::size_t>(at - data.begin());
    return {id, key_offset - SsdItemFraming::kHeaderBytes, key_offset + key.size(),
            bytes};
  }
}

class HybridManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }

  StatusCode set(HybridSlabManager& m, std::uint64_t i, std::size_t size,
                 std::int64_t expiration = 0) {
    return m.store(make_key(i), make_value(i, size), static_cast<std::uint32_t>(i),
                 expiration);
  }

  ::testing::AssertionResult get_matches(HybridSlabManager& m, std::uint64_t i,
                                         std::size_t size) {
    std::vector<char> out;
    std::uint32_t flags = 0;
    const StatusCode code = m.get(make_key(i), out, flags);
    if (!ok(code)) {
      return ::testing::AssertionFailure()
             << "get(" << i << ") -> " << status_name(code);
    }
    if (out != make_value(i, size)) {
      return ::testing::AssertionFailure() << "value mismatch for " << i;
    }
    if (flags != static_cast<std::uint32_t>(i)) {
      return ::testing::AssertionFailure() << "flags mismatch for " << i;
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_F(HybridManagerTest, SetGetDeleteInMemory) {
  HybridSlabManager m(base_config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(set(m, 1, 1000), StatusCode::kOk);
  EXPECT_TRUE(get_matches(m, 1, 1000));
  EXPECT_TRUE(m.exists(make_key(1)));
  EXPECT_EQ(m.item_count(), 1u);

  EXPECT_EQ(m.del(make_key(1)), StatusCode::kOk);
  EXPECT_FALSE(m.exists(make_key(1)));
  EXPECT_EQ(m.del(make_key(1)), StatusCode::kNotFound);

  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get(make_key(1), out, flags), StatusCode::kNotFound);
  EXPECT_EQ(m.stats().misses, 1u);
}

TEST_F(HybridManagerTest, OverwriteReplacesValueAndFlags) {
  HybridSlabManager m(base_config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.store("k", make_value(1, 100), 1, 0), StatusCode::kOk);
  ASSERT_EQ(m.store("k", make_value(2, 5000), 2, 0), StatusCode::kOk);  // class change
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(out, make_value(2, 5000));
  EXPECT_EQ(flags, 2u);
  EXPECT_EQ(m.item_count(), 1u);
}

TEST_F(HybridManagerTest, InvalidArguments) {
  HybridSlabManager m(base_config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.store("", make_value(1, 10), 0, 0), StatusCode::kInvalidArgument);
  // Item larger than a slab page cannot be stored.
  EXPECT_EQ(m.store("big", make_value(1, 512 << 10), 0, 0),
            StatusCode::kInvalidArgument);
}

TEST_F(HybridManagerTest, NegativeExpirationIsImmediatelyExpired) {
  HybridSlabManager m(base_config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(set(m, 1, 100, -5), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get(make_key(1), out, flags), StatusCode::kNotFound);
  EXPECT_EQ(m.stats().expired, 1u);
  EXPECT_FALSE(m.exists(make_key(1)));
}

TEST_F(HybridManagerTest, InMemoryEvictsLruUnderPressure) {
  HybridSlabManager m(base_config(StorageMode::kInMemory), nullptr);
  constexpr std::size_t kSize = 30 << 10;  // ~8 items per 256KB page, 64 fit in 2MB
  constexpr std::uint64_t kCount = 120;    // well beyond capacity
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(set(m, i, kSize), StatusCode::kOk) << i;
  }
  const auto stats = m.stats();
  EXPECT_GT(stats.dropped_evictions, 0u);
  EXPECT_EQ(stats.flushes, 0u);
  // Most recently written keys survive; the very first were dropped.
  EXPECT_TRUE(get_matches(m, kCount - 1, kSize));
  EXPECT_FALSE(m.exists(make_key(0)));
}

TEST_F(HybridManagerTest, HybridRetainsEverythingOnSsd) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  constexpr std::size_t kSize = 30 << 10;
  constexpr std::uint64_t kCount = 120;  // ~3.6MB of values into 2MB RAM
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(set(m, i, kSize), StatusCode::kOk) << i;
  }
  auto stats = m.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.flushed_items, 0u);
  EXPECT_EQ(stats.dropped_evictions, 0u);
  // Every single key must be retrievable with intact bytes.
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(get_matches(m, i, kSize)) << i;
  }
  stats = m.stats();
  EXPECT_GT(stats.ssd_hits, 0u);
  EXPECT_GT(stats.ram_hits, 0u);
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(m.item_count(), kCount);
}

TEST_F(HybridManagerTest, CorruptedSsdRecordFailsChecksum) {
  // Default kDirectAll policy: the GET reads the device, not a cached copy.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  constexpr std::size_t kSize = 30 << 10;
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, kSize), StatusCode::kOk);
  m.sync_storage();

  // Flip one byte of key 0's flushed value behind the store's back.
  const RecordLocation at = locate_record(storage, make_key(0), make_value(0, kSize));
  ASSERT_NE(at.id, ssd::kInvalidExtent) << "key 0 not found on the device";
  const std::size_t offset = at.value_offset + kSize / 2;
  char flipped = 0;
  ASSERT_EQ(storage.device().read_raw(at.id, offset, {&flipped, 1}), StatusCode::kOk);
  flipped = static_cast<char>(flipped ^ 0x01);
  ASSERT_EQ(storage.device().write_raw(at.id, offset, {&flipped, 1}), StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  EXPECT_EQ(m.get(make_key(0), out, flags), StatusCode::kServerError);
  EXPECT_EQ(m.stats().checksum_failures, 1u);
}

TEST_F(HybridManagerTest, MisdirectedSsdReadFailsVerification) {
  // Two keys with the same value and flags: their values hash alike, so only
  // the record's key tells a read of one from a read of the other.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  constexpr std::size_t kSize = 30 << 10;
  const std::vector<char> shared = make_value(4242, kSize);
  ASSERT_EQ(m.store(make_key(0), shared, 7, 0), StatusCode::kOk);
  ASSERT_EQ(m.store(make_key(1), shared, 7, 0), StatusCode::kOk);
  for (std::uint64_t i = 2; i < 120; ++i) ASSERT_EQ(set(m, i, kSize), StatusCode::kOk);
  m.sync_storage();

  // Point key 0's record at key 1's: copy key 1's framed record over it.
  const RecordLocation to = locate_record(storage, make_key(0), shared);
  const RecordLocation from = locate_record(storage, make_key(1), shared);
  ASSERT_NE(to.id, ssd::kInvalidExtent);
  ASSERT_NE(from.id, ssd::kInvalidExtent);
  std::vector<char> record(SsdItemFraming::record_size(make_key(1).size(), kSize));
  ASSERT_EQ(storage.device().read_raw(from.id, from.record_offset, record),
            StatusCode::kOk);
  ASSERT_EQ(storage.device().write_raw(to.id, to.record_offset, record),
            StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  EXPECT_EQ(m.get(make_key(0), out, flags), StatusCode::kServerError);
  EXPECT_EQ(m.stats().checksum_failures, 1u);
  ASSERT_EQ(m.get(make_key(1), out, flags), StatusCode::kOk);
  EXPECT_EQ(out, shared);
  EXPECT_EQ(m.stats().checksum_failures, 1u);
}

TEST_F(HybridManagerTest, SsdHitPromotesWhenRoomAvailable) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.promote_on_hit = true;
  HybridSlabManager m(cfg, &storage);
  constexpr std::size_t kSize = 30 << 10;
  // Fill past RAM so early keys land on SSD.
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, kSize), StatusCode::kOk);
  // Free plenty of RAM.
  for (std::uint64_t i = 100; i < 120; ++i) ASSERT_EQ(m.del(make_key(i)), StatusCode::kOk);
  ASSERT_TRUE(get_matches(m, 0, kSize));  // SSD hit -> promotion
  const auto stats = m.stats();
  EXPECT_GE(stats.promotions, 1u);
  ASSERT_TRUE(get_matches(m, 0, kSize));  // now served from RAM
  EXPECT_EQ(m.stats().ssd_hits, stats.ssd_hits);
  EXPECT_EQ(m.stats().ram_hits, stats.ram_hits + 1);
}

TEST_F(HybridManagerTest, PromotionDisabledKeepsItemsOnSsd) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.promote_on_hit = false;
  HybridSlabManager m(cfg, &storage);
  constexpr std::size_t kSize = 30 << 10;
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, kSize), StatusCode::kOk);
  for (std::uint64_t i = 100; i < 120; ++i) ASSERT_EQ(m.del(make_key(i)), StatusCode::kOk);
  ASSERT_TRUE(get_matches(m, 0, kSize));
  ASSERT_TRUE(get_matches(m, 0, kSize));
  EXPECT_EQ(m.stats().promotions, 0u);
  EXPECT_GE(m.stats().ssd_hits, 2u);
}

TEST_F(HybridManagerTest, DirectPolicyWritesDeviceSynchronously) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.io_policy = IoPolicy::kDirectAll;
  HybridSlabManager m(cfg, &storage);
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  EXPECT_GT(m.stats().flushes, 0u);
  // Direct I/O: device writes happen inline with the flush.
  EXPECT_GE(storage.device().stats().writes, m.stats().flushes);
  EXPECT_EQ(storage.cache().dirty_bytes(), 0u);
}

TEST_F(HybridManagerTest, AdaptivePolicyUsesPageCacheForSmallClasses) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.io_policy = IoPolicy::kAdaptive;
  cfg.adaptive_threshold = 64 << 10;  // 30KB items -> mmap scheme
  HybridSlabManager m(cfg, &storage);
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  ASSERT_GT(m.stats().flushes, 0u);
  // mmap/cached writes land in the page cache; write-back is asynchronous.
  // All data must still be readable and intact.
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_TRUE(get_matches(m, i, 30 << 10));
  m.sync_storage();
  EXPECT_EQ(storage.cache().dirty_bytes(), 0u);
}

TEST_F(HybridManagerTest, DirectReadStreamsTheRestOfTheExtent) {
  // H-RDMA-Def's slab-granular swap-in: under kDirectAll an SSD GET reads its
  // record and then the rest of its flushed extent, as two device reads. The
  // adaptive schemes read the record's range only: header, key and value.
  constexpr std::size_t kSize = 30 << 10;
  for (const IoPolicy policy : {IoPolicy::kDirectAll, IoPolicy::kAdaptive}) {
    const bool direct = policy == IoPolicy::kDirectAll;
    SCOPED_TRACE(direct ? "kDirectAll" : "kAdaptive");
    ssd::StorageStack storage(SsdProfile::sata(), test_cache());
    ManagerConfig cfg = base_config(StorageMode::kHybrid);
    cfg.io_policy = policy;
    HybridSlabManager m(cfg, &storage);
    for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, kSize), StatusCode::kOk);
    m.sync_storage();
    const RecordLocation at = locate_record(storage, make_key(0), make_value(0, kSize));
    ASSERT_NE(at.id, ssd::kInvalidExtent) << "key 0 not found on the device";
    ASSERT_GT(at.extent_bytes, at.value_offset + kSize) << "key 0 ends its extent";
    // The synced extent is clean: dropping it from the page cache makes the
    // adaptive GET read the device too.
    storage.cache().invalidate(at.id);

    const ssd::DeviceStats before = storage.device().stats();
    ASSERT_TRUE(get_matches(m, 0, kSize));
    const ssd::DeviceStats after = storage.device().stats();
    const std::uint64_t reads = after.reads - before.reads;
    const std::uint64_t read_bytes = after.read_bytes - before.read_bytes;
    if (direct) {
      EXPECT_EQ(reads, 2u);
      // From the record's header through the end of the extent.
      EXPECT_EQ(read_bytes, at.extent_bytes - at.record_offset);
    } else {
      EXPECT_EQ(reads, 1u);
      EXPECT_EQ(read_bytes, at.value_offset - at.record_offset + kSize);
    }
  }
}

TEST_F(HybridManagerTest, SsdLimitFallsBackToDropping) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.ssd_limit = 512 << 10;  // half a MB of SSD only
  HybridSlabManager m(cfg, &storage);
  for (std::uint64_t i = 0; i < 200; ++i) ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  const auto stats = m.stats();
  EXPECT_GT(stats.dropped_evictions, 0u);
  EXPECT_LE(stats.ssd_live_bytes, 512u << 10);
}

TEST_F(HybridManagerTest, DeleteReclaimsSsdSpaceEventually) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  const std::size_t used_before = storage.device().used_bytes();
  ASSERT_GT(used_before, 0u);
  for (std::uint64_t i = 0; i < 120; ++i) m.del(make_key(i));
  // All records dead -> all extents freed (TRIM).
  EXPECT_EQ(storage.device().used_bytes(), 0u);
  EXPECT_EQ(m.item_count(), 0u);
}

TEST_F(HybridManagerTest, ClearEmptiesBothTiers) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  for (std::uint64_t i = 0; i < 120; ++i) ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  m.clear();
  EXPECT_EQ(m.item_count(), 0u);
  EXPECT_FALSE(m.exists(make_key(0)));
  EXPECT_EQ(storage.device().used_bytes(), 0u);
  // Still usable after clear (same slab class: pages stay carved).
  ASSERT_EQ(set(m, 7, 30 << 10), StatusCode::kOk);
  EXPECT_TRUE(get_matches(m, 7, 30 << 10));
}

TEST_F(HybridManagerTest, StageSpansAttributeFlushToSlabAllocation) {
  sim::set_time_scale(0.05);
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  metrics::LatencyRecorder recorder(1);
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.io_policy = IoPolicy::kDirectAll;
  cfg.latency = &recorder;
  HybridSlabManager m(cfg, &storage);
  const auto span_ns = [&recorder](metrics::Span span) {
    return recorder.span_histogram(span).sum_ns();
  };
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.store(make_key(i), make_value(i, 30 << 10),
                    static_cast<std::uint32_t>(i), 0),
              StatusCode::kOk);
  }
  // Flush I/O dominates: slab-allocation time must dwarf cache-update.
  EXPECT_GT(span_ns(metrics::Span::kSlabAllocation),
            span_ns(metrics::Span::kCacheUpdate) * 5);

  recorder.reset();
  std::vector<char> out;
  std::uint32_t flags;
  // Coldest keys are on SSD: the load lands in CacheCheck+Load.
  ASSERT_EQ(m.get(make_key(0), out, flags), StatusCode::kOk);
  // SATA read of ~30KB is ~168us modelled, ~8.4us at scale 0.05; well above
  // the sub-microsecond cost of a RAM lookup.
  EXPECT_GT(span_ns(metrics::Span::kCacheCheckLoad), 5000u);
}

TEST_F(HybridManagerTest, RandomOpsMatchModelHybrid) {
  // Property test: with ample SSD, the hybrid tier is lossless -- any random
  // op sequence must match a model exactly. GETs of SSD-resident keys
  // promote them (keeping a clean SSD copy unless swap-in releases it), and
  // in-place overwrites and touches must drop that copy before it goes stale.
  for (const bool force_promote : {false, true}) {
    SCOPED_TRACE(force_promote ? "force_promote" : "opportunistic");
    ssd::StorageStack storage(SsdProfile::sata(), test_cache());
    ManagerConfig cfg = base_config(StorageMode::kHybrid);
    cfg.force_promote = force_promote;
    HybridSlabManager m(cfg, &storage);
    struct Expect {
      std::uint64_t seed = 0;
      std::size_t size = 0;
      std::uint32_t flags = 0;
      bool expired = false;  ///< touched with -1: gone on its next lookup
    };
    std::unordered_map<std::string, Expect> model;
    Rng rng(77);
    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t id = rng.next_below(200);
      const std::string key = make_key(id);
      // Sizes confined to one slab class: the hybrid tier is lossless only
      // while its class can keep flushing (multi-class calcification is
      // covered by MultiClassCalcificationFailsGracefully). Every overwrite
      // of a RAM-resident key is therefore in place.
      const std::size_t size = 23000 + rng.next_below(5000);
      const auto it = model.find(key);
      const bool live = it != model.end() && !it->second.expired;
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2: {  // set
          const std::uint64_t seed = rng.next();
          const auto flags = static_cast<std::uint32_t>(seed);
          ASSERT_EQ(m.store(key, make_value(seed, size), flags, 0), StatusCode::kOk);
          model[key] = Expect{seed, size, flags, false};
          break;
        }
        case 3: {  // del
          const StatusCode code = m.del(key);
          // A touched-expired key is still indexed until a lookup reaps it.
          EXPECT_EQ(ok(code), it != model.end());
          model.erase(key);
          break;
        }
        case 4: {  // touch: keep it, or expire it at once
          const bool expire = rng.next_below(4) == 0;
          const StatusCode code = m.touch(key, expire ? -1 : 3600);
          ASSERT_EQ(ok(code), live) << key;
          if (live && expire) it->second.expired = true;
          break;
        }
        default: {  // get, which promotes SSD-resident keys
          std::vector<char> out;
          std::uint32_t flags = 0;
          const StatusCode code = m.get(key, out, flags);
          ASSERT_EQ(ok(code), live) << key;
          if (live) {
            ASSERT_EQ(out, make_value(it->second.seed, it->second.size)) << key;
            ASSERT_EQ(flags, it->second.flags) << key;
          } else if (it != model.end()) {
            model.erase(it);  // the lookup reaped the expired key
          }
          break;
        }
      }
    }
    const ManagerStats stats = m.stats();
    EXPECT_GT(stats.promotions, 0u);
    EXPECT_EQ(stats.checksum_failures, 0u);
    EXPECT_EQ(stats.dropped_evictions, 0u);
    if (force_promote) {
      EXPECT_EQ(stats.clean_evictions, 0u);
    } else {
      EXPECT_GT(stats.clean_evictions, 0u);
    }
  }
}

TEST_F(HybridManagerTest, MultiClassCalcificationFailsGracefully) {
  // All slab pages get carved for one class; a second class then cannot
  // allocate and must fail cleanly (memcached's slab calcification), leaving
  // existing data intact.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(set(m, i, 30 << 10), StatusCode::kOk);
  }
  // A tiny item needs a fresh page for its class; none is left.
  EXPECT_EQ(m.store("tiny", make_value(1, 64), 0, 0), StatusCode::kOutOfMemory);
  // The store remains fully functional for the established class.
  EXPECT_TRUE(get_matches(m, 0, 30 << 10));
  ASSERT_EQ(set(m, 500, 30 << 10), StatusCode::kOk);
}

TEST_F(HybridManagerTest, ConcurrentDisjointWorkloadsStayConsistent) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(base_config(StorageMode::kHybrid), &storage);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 60;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * 1000;
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if (!ok(m.store(make_key(base + i), make_value(base + i, 20 << 10),
                      0, 0))) {
          ++failures;
        }
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        std::vector<char> out;
        std::uint32_t flags;
        if (!ok(m.get(make_key(base + i), out, flags)) ||
            out != make_value(base + i, 20 << 10)) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(m.item_count(), kThreads * kPerThread);
  EXPECT_EQ(m.stats().checksum_failures, 0u);
}

TEST_F(HybridManagerTest, FailedFlushRollsBackCountersExactly) {
  // Regression: the write-failure rollback in flush_batch used to subtract
  // with std::min clamps, which would silently absorb (instead of surface)
  // any imbalance. Force every flush to fail mid-batch -- allocation
  // succeeds, the SSD write does not -- and assert the flush counters are
  // restored to exactly zero: each failed flush must subtract precisely what
  // it added, across many repetitions.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = base_config(StorageMode::kHybrid);
  cfg.degrade_after_io_errors = 1000;  // keep re-attempting failed flushes
  HybridSlabManager m(cfg, &storage);
  storage.device().set_failed(true);

  // 2 MB RAM arena, 8 KB values: ~400 sets overflow RAM several times over,
  // so multiple flush batches run (and every one of them fails).
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_EQ(set(m, i, 8 << 10), StatusCode::kOk) << i;
  }

  const ManagerStats stats = m.stats();
  EXPECT_GT(stats.io_errors, 1u);          // multiple flushes failed
  EXPECT_GT(stats.dropped_evictions, 0u);  // victims lost -- counted
  // Exact rollback: no flush ever became durable, so the cumulative flush
  // accounting must be precisely zero -- not "zero after clamping".
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(stats.flushed_items, 0u);
  EXPECT_EQ(stats.flushed_bytes, 0u);
  EXPECT_EQ(stats.ssd_live_bytes, 0u);
  EXPECT_FALSE(stats.degraded);

  // The device heals: the next overflow flushes durably and the counters
  // move forward from their exact-zero baseline.
  storage.device().set_failed(false);
  for (std::uint64_t i = 400; i < 600; ++i) {
    ASSERT_EQ(set(m, i, 8 << 10), StatusCode::kOk) << i;
  }
  const ManagerStats healed = m.stats();
  EXPECT_GT(healed.flushes, 0u);
  EXPECT_EQ(healed.flushed_items * (8u << 10) <= healed.flushed_bytes, true);
  EXPECT_GT(healed.ssd_live_bytes, 0u);
}

}  // namespace
}  // namespace hykv::store
