// Page-cache concurrency properties: many threads writing/reading disjoint
// extents through cached and mmap I/O while the flusher drains -- data must
// come back intact and accounting must settle to zero dirty bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "ssd/io_engine.hpp"

namespace hykv::ssd {
namespace {

class PageCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.01);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(PageCacheConcurrencyTest, ParallelWritersDisjointExtentsStayIntact) {
  PageCacheConfig cfg;
  cfg.dirty_high_watermark = 1 << 20;  // force plenty of throttle/flush action
  cfg.dirty_low_watermark = 512 << 10;
  cfg.memory_limit = 2 << 20;          // force clean-entry eviction too
  StorageStack stack(SsdProfile::sata(), cfg);

  constexpr int kThreads = 4;
  constexpr int kExtentsPerThread = 30;
  constexpr std::size_t kBytes = 64 << 10;

  // Pre-allocate all extents (allocation is not the system under test).
  std::vector<std::vector<ExtentId>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kExtentsPerThread; ++i) {
      ids[static_cast<std::size_t>(t)].push_back(
          stack.device().allocate(kBytes).value());
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Alternate schemes per thread: cached and mmap share the cache.
      const IoScheme scheme = t % 2 == 0 ? IoScheme::kCached : IoScheme::kMmap;
      const auto& mine = ids[static_cast<std::size_t>(t)];
      for (int i = 0; i < kExtentsPerThread; ++i) {
        const auto seed = static_cast<std::uint64_t>(t * 1000 + i);
        if (!ok(stack.write(scheme, mine[static_cast<std::size_t>(i)], 0,
                            make_value(seed, kBytes))
                    .status)) {
          ++failures;
        }
      }
      // Read everything back through the same scheme.
      std::vector<char> out(kBytes);
      for (int i = 0; i < kExtentsPerThread; ++i) {
        const auto seed = static_cast<std::uint64_t>(t * 1000 + i);
        if (!ok(stack.read(scheme, mine[static_cast<std::size_t>(i)], 0, out)
                    .status) ||
            out != make_value(seed, kBytes)) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  stack.cache().sync();
  EXPECT_EQ(stack.cache().dirty_bytes(), 0u);

  // After sync, the raw device holds every byte (durability across the
  // whole concurrent episode).
  std::vector<char> out(kBytes);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kExtentsPerThread; ++i) {
      const auto seed = static_cast<std::uint64_t>(t * 1000 + i);
      ASSERT_EQ(stack.device().read_raw(ids[static_cast<std::size_t>(t)]
                                            [static_cast<std::size_t>(i)],
                                        0, out),
                StatusCode::kOk);
      EXPECT_EQ(out, make_value(seed, kBytes)) << t << "/" << i;
    }
  }
}

TEST_F(PageCacheConcurrencyTest, InvalidateRacingWriteback) {
  PageCacheConfig cfg;
  cfg.dirty_high_watermark = 8 << 20;
  cfg.dirty_low_watermark = 4 << 20;
  cfg.memory_limit = 32 << 20;
  StorageStack stack(SsdProfile::nvme(), cfg);

  // Repeatedly write an extent and invalidate it while the flusher works;
  // accounting must never underflow and sync must always terminate.
  for (int round = 0; round < 50; ++round) {
    const auto id = stack.device().allocate(128 << 10).value();
    ASSERT_EQ(stack.write(IoScheme::kCached, id, 0,
                          make_value(static_cast<std::uint64_t>(round), 128 << 10))
                  .status,
              StatusCode::kOk);
    if (round % 2 == 0) {
      stack.cache().invalidate(id);
      stack.device().free(id);
    }
  }
  stack.cache().sync();
  EXPECT_EQ(stack.cache().dirty_bytes(), 0u);
}

}  // namespace
}  // namespace hykv::ssd
