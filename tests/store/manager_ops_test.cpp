// Semantics of the extended memcached op set at the storage-engine level:
// add/replace/cas (store() preconditions), append/prepend/incr/decr
// (update()) and touch, against both tiers.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
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
  EXPECT_EQ(m.store("k", bytes("one"), 0, 0, {Condition::kAbsent}),
            StatusCode::kOk);
  EXPECT_EQ(m.store("k", bytes("two"), 0, 0, {Condition::kAbsent}),
            StatusCode::kNotStored);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "one");
}

TEST_F(ManagerOpsTest, AddSucceedsAfterExpiry) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.store("k", bytes("old"), 0, -1), StatusCode::kOk);  // expired
  EXPECT_EQ(m.store("k", bytes("new"), 0, 0, {Condition::kAbsent}),
            StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "new");
}

TEST_F(ManagerOpsTest, ReplaceOnlyWhenPresent) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.store("k", bytes("x"), 0, 0, {Condition::kPresent}),
            StatusCode::kNotStored);
  ASSERT_EQ(m.store("k", bytes("one"), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.store("k", bytes("two"), 7, 0, {Condition::kPresent}),
            StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "two");
  EXPECT_EQ(flags, 7u);
}

TEST_F(ManagerOpsTest, AppendPrependExtendValue) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.update("k", {Update::kAppend, bytes("tail")}).status(),
            StatusCode::kNotStored);
  ASSERT_EQ(m.store("k", bytes("mid"), 3, 0), StatusCode::kOk);
  EXPECT_EQ(m.update("k", {Update::kAppend, bytes("-end")}).status(),
            StatusCode::kOk);
  EXPECT_EQ(m.update("k", {Update::kPrepend, bytes("start-")}).status(),
            StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("k", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "start-mid-end");
  EXPECT_EQ(flags, 3u) << "append/prepend preserve flags";
}

TEST_F(ManagerOpsTest, AppendWorksOnSsdResidentItem) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(config(StorageMode::kHybrid), &storage);
  ASSERT_EQ(m.store("cold", bytes("base"), 0, 0), StatusCode::kOk);
  // Push "cold" out to SSD.
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.store(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  EXPECT_EQ(m.update("cold", {Update::kAppend, bytes("+hot")}).status(),
            StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("cold", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "base+hot");
}

TEST_F(ManagerOpsTest, IncrDecrSemantics) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.update("n", {Update::kIncr, {}, 1}).status(),
            StatusCode::kNotFound);
  ASSERT_EQ(m.store("n", bytes("10"), 0, 0), StatusCode::kOk);

  auto up = m.update("n", {Update::kIncr, {}, 5});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), 15u);

  auto down = m.update("n", {Update::kDecr, {}, 3});
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), 12u);

  // memcached semantics: decr saturates at zero.
  auto floor = m.update("n", {Update::kDecr, {}, 100});
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(floor.value(), 0u);

  std::vector<char> out;
  std::uint32_t flags;
  ASSERT_EQ(m.get("n", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "0");
}

TEST_F(ManagerOpsTest, IncrRejectsNonNumeric) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.store("s", bytes("abc"), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.update("s", {Update::kIncr, {}, 1}).status(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(m.store("e", bytes(""), 0, 0), StatusCode::kOk);
  EXPECT_EQ(m.update("e", {Update::kIncr, {}, 1}).status(),
            StatusCode::kInvalidArgument);
}

TEST_F(ManagerOpsTest, TouchRefreshesExpiry) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  EXPECT_EQ(m.touch("missing", 100), StatusCode::kNotFound);
  ASSERT_EQ(m.store("k", bytes("v"), 0, 3600), StatusCode::kOk);
  EXPECT_EQ(m.touch("k", -1), StatusCode::kOk);  // expire immediately
  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get("k", out, flags), StatusCode::kNotFound);
  EXPECT_EQ(m.touch("k", 100), StatusCode::kNotFound);
}

TEST_F(ManagerOpsTest, NegativeExpirationLandingOnZeroStillExpires) {
  // Expiry 0 means "never". A negative expiration that cancels the clock's
  // seconds exactly (now + expiration == 0) must still expire the item.
  while (steady_seconds() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.store("set", bytes("v"), 0, -steady_seconds()), StatusCode::kOk);
  EXPECT_EQ(m.get("set", out, flags), StatusCode::kNotFound);
  ASSERT_EQ(m.store("touched", bytes("v"), 0, 0), StatusCode::kOk);
  ASSERT_EQ(m.touch("touched", -steady_seconds()), StatusCode::kOk);
  EXPECT_EQ(m.get("touched", out, flags), StatusCode::kNotFound);
}

TEST_F(ManagerOpsTest, TouchWorksOnSsdResidentItem) {
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  ManagerConfig cfg = config(StorageMode::kHybrid);
  cfg.promote_on_hit = false;  // keep the item on flash
  HybridSlabManager m(cfg, &storage);
  ASSERT_EQ(m.store("cold", bytes("v"), 0, 3600), StatusCode::kOk);
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.store(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  EXPECT_EQ(m.touch("cold", -1), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  EXPECT_EQ(m.get("cold", out, flags), StatusCode::kNotFound);
}

TEST_F(ManagerOpsTest, InPlaceOverwriteDoesNotChurnAllocator) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.store("k", make_value(1, 900), 0, 0), StatusCode::kOk);  // same class as overwrites
  const auto pages_before = m.slab_stats().slab_pages;
  const auto used_before = m.slab_stats().used_chunks;
  // Sizes stay within one slab class so every overwrite is in place.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(m.store("k",
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

  EXPECT_EQ(m.get("k", out, flags, &cas), StatusCode::kNotFound);
  EXPECT_EQ(m.store("k", bytes("v"), 0, 0, {Condition::kVersion, 1}),
            StatusCode::kNotFound);
  // Token 0 is what current_cas_locked reports for an absent key; the cas
  // must still answer NOT_FOUND and create nothing.
  EXPECT_EQ(m.store("k", bytes("v"), 0, 0, {Condition::kVersion, 0}),
            StatusCode::kNotFound);
  EXPECT_FALSE(m.exists("k"));
  EXPECT_EQ(m.item_count(), 0u);

  ASSERT_EQ(m.store("k", bytes("v1"), 5, 0), StatusCode::kOk);
  ASSERT_EQ(m.get("k", out, flags, &cas), StatusCode::kOk);
  EXPECT_EQ(str(out), "v1");
  EXPECT_EQ(flags, 5u);
  ASSERT_NE(cas, 0u);

  // Correct token wins.
  EXPECT_EQ(m.store("k", bytes("v2"), 6, 0, {Condition::kVersion, cas}),
            StatusCode::kOk);
  // Old token now loses (EXISTS), and so does token 0.
  EXPECT_EQ(m.store("k", bytes("v3"), 7, 0, {Condition::kVersion, cas}),
            StatusCode::kNotStored);
  EXPECT_EQ(m.store("k", bytes("v3"), 7, 0, {Condition::kVersion, 0}),
            StatusCode::kNotStored);
  std::uint64_t cas2 = 0;
  ASSERT_EQ(m.get("k", out, flags, &cas2), StatusCode::kOk);
  EXPECT_EQ(str(out), "v2");
  EXPECT_EQ(flags, 6u);
  EXPECT_NE(cas2, cas);
}

TEST_F(ManagerOpsTest, EveryMutationBumpsCas) {
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  std::vector<char> out;
  std::uint32_t flags;
  std::uint64_t cas_a = 0, cas_b = 0;
  ASSERT_EQ(m.store("k", bytes("a"), 0, 0), StatusCode::kOk);
  ASSERT_EQ(m.get("k", out, flags, &cas_a), StatusCode::kOk);
  ASSERT_EQ(m.store("k", bytes("b"), 0, 0), StatusCode::kOk);  // in place
  ASSERT_EQ(m.get("k", out, flags, &cas_b), StatusCode::kOk);
  EXPECT_NE(cas_a, cas_b);

  // Every op that commits stamps a CAS no earlier version carried.
  std::set<std::uint64_t> seen{cas_a, cas_b};
  auto cas_of = [&](std::string_view key) {
    std::uint64_t cas = 0;
    EXPECT_EQ(m.get(key, out, flags, &cas), StatusCode::kOk) << key;
    return cas;
  };
  auto expect_new_cas = [&](const char* op, std::string_view key) {
    const std::uint64_t cas = cas_of(key);
    EXPECT_NE(cas, 0u) << op;
    EXPECT_TRUE(seen.insert(cas).second) << op << " kept CAS " << cas;
  };
  ASSERT_EQ(m.store("k", make_value(1, 5000), 0, 0), StatusCode::kOk);
  expect_new_cas("set (relocating)", "k");
  ASSERT_EQ(m.store("a", bytes("1"), 0, 0, {Condition::kAbsent}),
            StatusCode::kOk);
  expect_new_cas("add", "a");
  ASSERT_EQ(m.store("k", bytes("r"), 0, 0, {Condition::kPresent}),
            StatusCode::kOk);
  expect_new_cas("replace", "k");
  ASSERT_EQ(m.store("k", bytes("c"), 0, 0, {Condition::kVersion, cas_of("k")}),
            StatusCode::kOk);
  expect_new_cas("cas", "k");
  ASSERT_EQ(m.update("k", {Update::kAppend, bytes(">")}).status(),
            StatusCode::kOk);
  expect_new_cas("append", "k");
  ASSERT_EQ(m.update("k", {Update::kPrepend, bytes("<")}).status(),
            StatusCode::kOk);
  expect_new_cas("prepend", "k");
  ASSERT_EQ(m.update("a", {Update::kIncr, {}, 2}).status(), StatusCode::kOk);
  expect_new_cas("incr", "a");
  ASSERT_EQ(m.update("a", {Update::kDecr, {}, 1}).status(), StatusCode::kOk);
  expect_new_cas("decr", "a");

  // Refused ops commit nothing: no CAS moves and no key appears.
  const std::uint64_t before = cas_of("k");
  EXPECT_EQ(m.update("n", {Update::kIncr, {}, 0}).status(),
            StatusCode::kNotFound);  // absent: no effect
  EXPECT_FALSE(m.exists("n"));
  EXPECT_EQ(m.store("k", bytes("x"), 0, 0, {Condition::kAbsent}),
            StatusCode::kNotStored);
  EXPECT_EQ(m.store("k", bytes("x"), 0, 0, {Condition::kVersion, cas_a}),
            StatusCode::kNotStored);
  EXPECT_EQ(cas_of("k"), before);
}

TEST_F(ManagerOpsTest, UpdatesKeepTheItemTtl) {
  // memcached: incr/decr/append/prepend rewrite the value but keep the
  // item's expiry and flags; a counter with a TTL must still expire.
  HybridSlabManager m(config(StorageMode::kInMemory), nullptr);
  ASSERT_EQ(m.store("n", bytes("1"), 9, 2), StatusCode::kOk);
  ASSERT_EQ(m.store("s", bytes("x"), 8, 2), StatusCode::kOk);
  ASSERT_TRUE(m.update("n", {Update::kIncr, {}, 1}).ok());
  ASSERT_TRUE(m.update("s", {Update::kAppend, bytes("y")}).ok());
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(m.get("n", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "2");
  EXPECT_EQ(flags, 9u) << "incr keeps flags";
  ASSERT_EQ(m.get("s", out, flags), StatusCode::kOk);
  EXPECT_EQ(str(out), "xy");
  EXPECT_EQ(flags, 8u) << "append keeps flags";
  std::this_thread::sleep_for(std::chrono::milliseconds(3100));
  EXPECT_FALSE(m.exists("n")) << "incr made the key immortal";
  EXPECT_FALSE(m.exists("s")) << "append made the key immortal";
}

TEST_F(ManagerOpsTest, CasSurvivesSsdRoundTrip) {
  // The token captured while the item was in RAM must still validate after
  // the item is flushed to flash and promoted back.
  ssd::StorageStack storage(SsdProfile::sata(), test_cache());
  HybridSlabManager m(config(StorageMode::kHybrid), &storage);
  ASSERT_EQ(m.store("cold", bytes("frozen"), 0, 0), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags;
  std::uint64_t cas = 0;
  ASSERT_EQ(m.get("cold", out, flags, &cas), StatusCode::kOk);
  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_EQ(m.store(make_key(i), make_value(i, 30 << 10), 0, 0), StatusCode::kOk);
  }
  // Item now on SSD; token must still match (relocation is not mutation).
  std::uint64_t cas_after = 0;
  ASSERT_EQ(m.get("cold", out, flags, &cas_after), StatusCode::kOk);
  EXPECT_EQ(cas_after, cas);
  EXPECT_EQ(m.store("cold", bytes("thawed"), 0, 0, {Condition::kVersion, cas}),
            StatusCode::kOk);
  ASSERT_EQ(m.get("cold", out, flags, &cas_after), StatusCode::kOk);
  EXPECT_EQ(str(out), "thawed");
  EXPECT_NE(cas_after, cas);
}

}  // namespace
}  // namespace hykv::store
