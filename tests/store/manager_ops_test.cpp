// Semantics of the extended memcached op set at the storage-engine level:
// add/replace/append/prepend/incr/decr/touch, against both tiers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "store/hybrid_manager.hpp"

namespace hykv::store {
namespace {

ssd::PageCacheConfig test_cache() {
  ssd::PageCacheConfig cfg;
  cfg.dirty_high_watermark = 4 << 20;
  cfg.dirty_low_watermark = 2 << 20;
  cfg.memory_limit = 16 << 20;
  return cfg;
}

ManagerConfig config(StorageMode mode) {
  ManagerConfig cfg;
  cfg.mode = mode;
  cfg.slab.slab_bytes = 256 << 10;
  cfg.slab.memory_limit = 2 << 20;
  return cfg;
}

class ManagerOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }

  static std::span<const char> bytes(const std::string& s) {
    return {s.data(), s.size()};
  }
  static std::string str(const std::vector<char>& v) {
    return {v.begin(), v.end()};
  }
};

TEST_F(ManagerOpsTest, AddOnlyWhenAbsent) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.add("k", bytes("one"), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.add("k", bytes("two"), 0, 0), StatusCode::kNotStored);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "one");
}

TEST_F(ManagerOpsTest, AddSucceedsAfterExpiry) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.set("k", bytes("old"), 0, -1), StatusCode::kOk);  // expired
  EXPECT_EQ(m.add("k", bytes("new"), 0, 0), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "new");
}

TEST_F(ManagerOpsTest, ReplaceOnlyWhenPresent) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.replace("k", bytes("x"), 0, 0), StatusCode::kNotStored);
  ASSERT_EQ(m.set("k", bytes("one"), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.replace("k", bytes("two"), 7, 0), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "two");
  EXPECT_EQ(flags, 7u);
}

TEST_F(ManagerOpsTest, AppendPrependExtendValue) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.append("k", bytes("tail")), StatusCode::kNotStored);
  ASSERT_EQ(m.set("k", bytes("mid"), 3, 0), StatusCode::kOk);
  EXPECT_EQ(m.append("k", bytes("-end")), StatusCode::kOk);
  EXPECT_EQ(m.prepend("k", bytes("start-")), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "start-mid-end");
  EXPECT_EQ(flags, 3u) << "append/prepend preserve flags";
}

TEST_F(ManagerOpsTest, AppendWorksOnSsdResidentItem) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(config(StorageMode::kHybrid), &storage);
  ASSERT_EQ(m.set("cold", bytes("base"), 0, 0), StatusCode::kOk);
  // Push "cold" out to SSD.
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  EXPECT_EQ(m.append("cold", bytes("+hot")), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("cold", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "base+hot");
}

TEST_F(ManagerOpsTest, IncrDecrSemantics) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.incr("n", 1).status(), StatusCode::kNotFound);
  ASSERT_EQ(m.set("n", bytes("10"), 0, 0), StatusCode::kOk);

  auto up = m.incr("n", 5);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), 15u);

  auto down = m.decr("n", 3);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), 12u);

  // memcached semantics: decr saturates at zero.
  auto floor = m.decr("n", 100);
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(floor.value(), 0u);

  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("n", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "0");
}

TEST_F(ManagerOpsTest, IncrRejectsNonNumeric) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.set("s", bytes("abc"), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.incr("s", 1).status(), StatusCode::kInvalidArgument);
  ASSERT_EQ(m.set("e", bytes(""), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.incr("e", 1).status(), StatusCode::kInvalidArgument);
}

TEST_F(ManagerOpsTest, TouchRefreshesExpiry) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.touch("missing", 100), StatusCode::kNotFound);
  ASSERT_EQ(m.set("k", bytes("v"), 0, 3600), StatusCode::kOk);
  EXPECT_EQ(m.touch("k", -1), StatusCode::kOk);  // expire immediately
  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get("k", out, flags), StatusCode::kNotFound);
  EXPECT_EQ(m.touch("k", 100), StatusCode::kNotFound);
}

TEST_F(ManagerOpsTest, TouchWorksOnSsdResidentItem) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = config(StorageMode::kHybrid);
  cfg.promote_on_hit = false;  // keep the item on flash
  HybridSlabManager m(cfg, &storage);
  ASSERT_EQ(m.set("cold", bytes("v"), 0, 3600), StatusCode::kOk);
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  EXPECT_EQ(m.touch("cold", -1), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get("cold", out, flags), StatusCode::kNotFound);
}

TEST_F(ManagerOpsTest, InPlaceOverwriteDoesNotChurnAllocator) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.set("k", make_value(1, 900), 0, 0), StatusCode::kOk);  // same class as overwrites
  const auto pages_before = m.slab_stats().slab_pages;
  const auto used_before = m.slab_stats().used_chunks;
  // Sizes stay within one slab class so every overwrite is in place.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(m.set("k",
                    make_value(static_cast<std::uint64_t>(i),
                               850 + static_cast<std::size_t>(i % 50)),
                    0, 0),
              StatusCode::kOk);
  }
  EXPECT_EQ(m.slab_stats().slab_pages, pages_before);
  EXPECT_EQ(m.slab_stats().used_chunks, used_before);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(out, make_value(99, 899));
}

TEST_F(ManagerOpsTest, CasBasicSemantics) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  std::vector<char> out;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;

  EXPECT_EQ(m.gets("k", out, flags, cas), StatusCode::kNotFound);
  EXPECT_EQ(m.cas("k", bytes("v"), 0, 0, 1), StatusCode::kNotFound);

  ASSERT_EQ(m.set("k", bytes("v1"), 5, 0), StatusCode::kOk);
  ASSERT_EQ(m.gets("k", out, flags, cas), StatusCode::kOk);
  EXPECT_EQ(str(out), "v1");
  EXPECT_EQ(flags, 5u);
  ASSERT_NE(cas, 0u);

  // Correct token wins.
  EXPECT_EQ(m.cas("k", bytes("v2"), 6, 0, cas), StatusCode::kOk);
  // Old token now loses (EXISTS).
  EXPECT_EQ(m.cas("k", bytes("v3"), 7, 0, cas), StatusCode::kNotStored);
  std::uint64_t cas2 = 0;
  ASSERT_EQ(m.gets("k", out, flags, cas2), StatusCode::kOk);
  EXPECT_EQ(str(out), "v2");
  EXPECT_EQ(flags, 6u);
  EXPECT_NE(cas2, cas);
}

TEST_F(ManagerOpsTest, EveryMutationBumpsCas) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  std::vector<char> out;
  std::uint32_t flags;
  std::uint64_t cas_a = 0, cas_b = 0;
  ASSERT_EQ(m.set("k", bytes("a"), 0, 0), StatusCode::kOk);
  ASSERT_EQ(m.gets("k", out, flags, cas_a), StatusCode::kOk);
  ASSERT_EQ(m.set("k", bytes("b"), 0, 0), StatusCode::kOk);  // in place
  ASSERT_EQ(m.gets("k", out, flags, cas_b), StatusCode::kOk);
  EXPECT_NE(cas_a, cas_b);
  const auto bumped = m.incr("n", 0).status();  // absent: no effect
  (void)bumped;
}

TEST_F(ManagerOpsTest, CasSurvivesSsdRoundTrip) {
  // The token captured while the item was in RAM must still validate after
  // the item is flushed to flash and promoted back.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(config(StorageMode::kHybrid), &storage);
  ASSERT_EQ(m.set("cold", bytes("frozen"), 0, 0), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  std::uint64_t cas = 0;
  ASSERT_EQ(m.gets("cold", out, flags, cas), StatusCode::kOk);
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.set(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  // Item now on SSD; token must still match (relocation is not mutation).
  std::uint64_t cas_after = 0;
  ASSERT_EQ(m.gets("cold", out, flags, cas_after), StatusCode::kOk);
  EXPECT_EQ(cas_after, cas);
  EXPECT_EQ(m.cas("cold", bytes("thawed"), 0, 0, cas), StatusCode::kOk);
  ASSERT_EQ(m.gets("cold", out, flags, cas_after), StatusCode::kOk);
  EXPECT_EQ(str(out), "thawed");
  EXPECT_NE(cas_after, cas);
}

}  // namespace
}  // namespace hykv::store
