#include "ssd/device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"

namespace hykv::ssd {
namespace {

SsdProfile tiny_profile() {
  SsdProfile p = SsdProfile::sata();
  p.capacity_bytes = 1 << 20;  // 1 MB for capacity tests
  return p;
}

class SsdDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.0);  // data-path tests don't need modelled latency
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(SsdDeviceTest, WriteReadRoundTrip) {
  SsdDevice dev(SsdProfile::sata());
  const auto id = dev.allocate(4096);
  ASSERT_TRUE(id.ok());
  const auto payload = make_value(1, 4096);
  ASSERT_EQ(dev.write(id.value(), 0, payload).status, StatusCode::kOk);
  std::vector<char> out(4096);
  ASSERT_EQ(dev.read(id.value(), 0, out).status, StatusCode::kOk);
  EXPECT_EQ(out, payload);
}

TEST_F(SsdDeviceTest, OffsetWithinExtent) {
  SsdDevice dev(SsdProfile::nvme());
  const auto id = dev.allocate(8192).value();
  const auto a = make_value(10, 1000);
  const auto b = make_value(11, 1000);
  ASSERT_EQ(dev.write(id, 0, a).status, StatusCode::kOk);
  ASSERT_EQ(dev.write(id, 4096, b).status, StatusCode::kOk);
  std::vector<char> out(1000);
  ASSERT_EQ(dev.read(id, 4096, out).status, StatusCode::kOk);
  EXPECT_EQ(out, b);
  ASSERT_EQ(dev.read(id, 0, out).status, StatusCode::kOk);
  EXPECT_EQ(out, a);
}

TEST_F(SsdDeviceTest, OutOfRangeRejected) {
  SsdDevice dev(SsdProfile::sata());
  const auto id = dev.allocate(100).value();
  const auto payload = make_value(1, 64);
  EXPECT_EQ(dev.write(id, 64, payload).status, StatusCode::kInvalidArgument);
  std::vector<char> out(64);
  EXPECT_EQ(dev.read(id, 64, out).status, StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.write(id + 999, 0, payload).status, StatusCode::kInvalidArgument);
}

TEST_F(SsdDeviceTest, CapacityEnforcedAndFreedSpaceReusable) {
  SsdDevice dev(tiny_profile());
  const auto a = dev.allocate(600 << 10);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(dev.allocate(600 << 10).ok());  // over 1 MB total
  dev.free(a.value());
  EXPECT_EQ(dev.used_bytes(), 0u);
  EXPECT_TRUE(dev.allocate(600 << 10).ok());
}

TEST_F(SsdDeviceTest, FreeUnknownExtentIsNoop) {
  SsdDevice dev(tiny_profile());
  dev.free(12345);  // must not crash or corrupt accounting
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST_F(SsdDeviceTest, StatsAccumulateAndReset) {
  SsdDevice dev(SsdProfile::sata());
  const auto id = dev.allocate(4096).value();
  const auto payload = make_value(2, 4096);
  dev.write(id, 0, payload);
  std::vector<char> out(4096);
  dev.read(id, 0, out);
  const auto stats = dev.stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.written_bytes, 4096u);
  EXPECT_EQ(stats.read_bytes, 4096u);
  dev.reset_stats();
  EXPECT_EQ(dev.stats().writes, 0u);
}

TEST_F(SsdDeviceTest, ExtentSizeQuery) {
  SsdDevice dev(SsdProfile::sata());
  const auto id = dev.allocate(12345).value();
  EXPECT_EQ(dev.extent_size(id), 12345u);
  EXPECT_EQ(dev.extent_size(id + 1), 0u);
}

TEST_F(SsdDeviceTest, ModelledLatencyIsPaid) {
  sim::set_time_scale(1.0);
  SsdDevice dev(SsdProfile::sata());
  const auto id = dev.allocate(64 << 10).value();
  const auto payload = make_value(3, 64 << 10);
  const auto start = sim::now();
  dev.write(id, 0, payload);
  const auto elapsed = sim::now() - start;
  // SATA write of 64KB: >= 90us base + ~139us transfer.
  EXPECT_GE(elapsed, sim::us(200));
}

TEST_F(SsdDeviceTest, SingleChannelSerialisesConcurrentAccess) {
  sim::set_time_scale(1.0);
  SsdProfile p = SsdProfile::sata();
  p.channels = 1;
  SsdDevice dev(p);
  const auto start = sim::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] { dev.occupy_write(64 << 10); });
  }
  for (auto& t : threads) t.join();
  // Three ~229us accesses through one channel must serialise: >= ~680us.
  EXPECT_GE(sim::now() - start, sim::us(600));
}

TEST_F(SsdDeviceTest, MultiChannelAllowsOverlap) {
  sim::set_time_scale(1.0);
  SsdProfile p = SsdProfile::nvme();
  p.channels = 4;
  SsdDevice dev(p);
  const auto start = sim::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] { dev.occupy_write(1 << 20); });
  }
  for (auto& t : threads) t.join();
  // Four ~545us accesses across four channels overlap: well under the
  // ~2.2ms serial total even with thread-spawn overhead.
  EXPECT_LT(sim::now() - start, sim::us(1500));
}

TEST_F(SsdDeviceTest, DiscardFreesOnlyWhollyDeadSegments) {
  SsdDevice dev(tiny_profile());
  constexpr std::size_t kSeg = kSegmentBytes;
  const std::size_t size = 2 * kSeg + 1000;  // two full segments and a tail
  const auto id = dev.allocate(size).value();
  const auto payload = make_value(5, size);
  ASSERT_EQ(dev.write(id, 0, payload).status, StatusCode::kOk);
  const std::vector<char> live_tail(payload.begin() + kSeg + 100, payload.end());

  // Half of segment 0 dies: nothing is freed, the rest reads back.
  dev.discard(id, 0, kSeg / 2);
  EXPECT_EQ(dev.stats().trimmed_bytes, 0u);
  std::vector<char> out(kSeg / 2);
  ASSERT_EQ(dev.read(id, kSeg / 2, out).status, StatusCode::kOk);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), payload.begin() + kSeg / 2));

  // A record across the boundary dies: segment 0 is wholly dead and freed,
  // segment 1 keeps its live bytes.
  dev.discard(id, kSeg / 2, kSeg / 2 + 100);
  EXPECT_EQ(dev.stats().trimmed_bytes, kSeg);
  std::vector<char> head(10);
  EXPECT_EQ(dev.read(id, 0, head).status, StatusCode::kInvalidArgument);
  EXPECT_EQ(dev.read_raw(id, kSeg - 5, head), StatusCode::kInvalidArgument);
  std::vector<char> tail(live_tail.size());
  ASSERT_EQ(dev.read(id, kSeg + 100, tail).status, StatusCode::kOk);
  EXPECT_EQ(tail, live_tail);

  // A write into the freed segment stores nothing there and fails nothing;
  // the live neighbour it spans is written.
  const auto rewrite = make_value(6, kSeg + 200);
  ASSERT_EQ(dev.write(id, 0, rewrite).status, StatusCode::kOk);
  EXPECT_EQ(dev.read(id, 0, head).status, StatusCode::kInvalidArgument);
  std::vector<char> written(100);
  ASSERT_EQ(dev.read(id, kSeg + 100, written).status, StatusCode::kOk);
  EXPECT_TRUE(std::equal(written.begin(), written.end(), rewrite.begin() + kSeg + 100));

  // Capacity is the extent's until it is freed.
  EXPECT_EQ(dev.used_bytes(), size);
  EXPECT_EQ(dev.extent_size(id), size);
  dev.free(id);
  EXPECT_EQ(dev.used_bytes(), 0u);
}

TEST_F(SsdDeviceTest, BusyTimeTracked) {
  sim::set_time_scale(0.0);  // zero real wait, but busy_ns still modelled
  SsdDevice dev(SsdProfile::sata());
  dev.occupy_write(1 << 20);
  EXPECT_GT(dev.stats().busy_ns, 2000000u);  // >2ms modelled for 1MB SATA write
}

}  // namespace
}  // namespace hykv::ssd
