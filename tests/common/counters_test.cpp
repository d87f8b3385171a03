// Counter families (common/counters.hpp): the field list drives the
// members, names, merge and the lock-free slot. The concurrent-add test is
// the TSan proof for the slot's atomic_ref cells -- hence the `stress`
// label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#include "common/counters.hpp"

namespace hykv {
namespace {

#define HYKV_TEST_FAMILY_FIELDS(X) \
  X(std::uint64_t, hits)           \
  X(std::uint64_t, bytes)          \
  X(std::uint32_t, shards)         \
  X(bool, degraded)

struct TestFamily {
  HYKV_COUNTER_FIELDS(TestFamily, HYKV_TEST_FAMILY_FIELDS)
};

TEST(CounterFamilyTest, FieldNamesFollowTheList) {
  const std::vector<std::string_view> expected = {"hits", "bytes", "shards",
                                                  "degraded"};
  EXPECT_EQ(metrics::field_names<TestFamily>(), expected);
  static_assert(metrics::has_field<TestFamily>("shards"));
  static_assert(!metrics::has_field<TestFamily>("misses"));
}

TEST(CounterFamilyTest, MergeAddsCountersAndOrsFlags) {
  TestFamily total{.hits = 1, .bytes = 10, .shards = 1};
  metrics::merge(total,
                 {.hits = 2, .bytes = 20, .shards = 3, .degraded = true});
  metrics::merge(total, {.hits = 4, .bytes = 40, .shards = 0});
  EXPECT_EQ(total.hits, 7u);
  EXPECT_EQ(total.bytes, 70u);
  EXPECT_EQ(total.shards, 4u);
  EXPECT_TRUE(total.degraded);
}

TEST(CounterSlotTest, ConcurrentAddsAreExactAndResetZeroes) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kAdds = 20000;
  metrics::CounterSlot<TestFamily> slot;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slot] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        slot.add(&TestFamily::hits);
        slot.add(&TestFamily::bytes, 3);
      }
    });
  }
  // Snapshots taken while the adders run never go backwards.
  std::uint64_t last_hits = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t hits = slot.snapshot().hits;
    EXPECT_GE(hits, last_hits);
    last_hits = hits;
  }
  for (auto& thread : threads) thread.join();

  const TestFamily total = slot.snapshot();
  EXPECT_EQ(total.hits, kThreads * kAdds);
  EXPECT_EQ(total.bytes, 3 * kThreads * kAdds);
  EXPECT_EQ(total.shards, 0u);
  EXPECT_FALSE(total.degraded);

  slot.reset();
  EXPECT_EQ(slot.snapshot().hits, 0u);
  EXPECT_EQ(slot.snapshot().bytes, 0u);
}

}  // namespace
}  // namespace hykv
