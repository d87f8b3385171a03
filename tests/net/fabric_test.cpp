#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"

namespace hykv::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(1.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(FabricTest, SendRecvRoundTripPreservesBytes) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto client = fabric.create_endpoint("client");
  auto server = fabric.create_endpoint("server");
  const auto payload = make_value(1, 4096);
  client->send(server->id(), 7, 42, payload);
  auto msg = server->recv();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().opcode, 7);
  EXPECT_EQ(msg.value().wr_id, 42u);
  EXPECT_EQ(msg.value().src, client->id());
  EXPECT_EQ(msg.value().payload, payload);
}

TEST_F(FabricTest, DeliveryHonoursModelledLatency) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  const auto payload = make_value(2, 32 << 10);
  const auto start = sim::now();
  a->send(b->id(), 1, 1, payload);
  (void)b->recv();
  const auto elapsed = sim::now() - start;
  // 32KB over FDR: >= 1.2us base + ~5.5us wire.
  EXPECT_GE(elapsed, sim::us(6));
  EXPECT_LT(elapsed, sim::ms(3));
}

TEST_F(FabricTest, IpoibIsSlowerThanRdma) {
  const auto payload = make_value(3, 32 << 10);
  auto measure = [&](FabricProfile profile) {
    Fabric fabric(std::move(profile));
    auto a = fabric.create_endpoint("a");
    auto b = fabric.create_endpoint("b");
    const auto start = sim::now();
    for (int i = 0; i < 5; ++i) {
      a->send(b->id(), 1, static_cast<std::uint64_t>(i), payload);
      (void)b->recv();
    }
    return sim::now() - start;
  };
  const auto rdma = measure(FabricProfile::fdr_rdma());
  const auto ipoib = measure(FabricProfile::ipoib());
  EXPECT_GT(ipoib, rdma * 2);
}

TEST_F(FabricTest, SendTicketMarksInjectionCompletion) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  const auto payload = make_value(4, 1 << 20);  // ~175us injection on FDR
  const auto start = sim::now();
  auto ticket = a->send(b->id(), 1, 1, payload);
  ticket.wait();
  EXPECT_TRUE(ticket.done());
  // Injection of 1MB on FDR is ~175us; wait() must not return before it.
  EXPECT_GE(sim::now() - start, sim::us(150));
  (void)b->recv();
}

TEST_F(FabricTest, ConcurrentSendersShareLinkBandwidth) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto server = fabric.create_endpoint("server");
  auto c1 = fabric.create_endpoint("c1");
  auto c2 = fabric.create_endpoint("c2");
  const auto payload = make_value(5, 1 << 20);
  const auto start = sim::now();
  std::thread t1([&] { c1->send(server->id(), 1, 1, payload).wait(); });
  std::thread t2([&] { c2->send(server->id(), 1, 2, payload).wait(); });
  t1.join();
  t2.join();
  (void)server->recv();
  (void)server->recv();
  // Two 1MB messages into one NIC serialise: >= ~350us total occupancy.
  EXPECT_GE(sim::now() - start, sim::us(330));
}

TEST_F(FabricTest, RecvForTimesOutWithoutTraffic) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  const auto result = a->recv_for(sim::ms(10));
  EXPECT_EQ(result.status(), StatusCode::kTimedOut);
}

TEST_F(FabricTest, CloseUnblocksReceivers) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  std::thread receiver([&] {
    const auto result = a->recv();
    EXPECT_EQ(result.status(), StatusCode::kShutdown);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  a->close();
  receiver.join();
}

TEST_F(FabricTest, SendToClosedOrUnknownEndpointIsLostNotFatal) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  b->close();
  const auto payload = make_value(6, 64);
  auto t1 = a->send(b->id(), 1, 1, payload);
  t1.wait();
  auto t2 = a->send(9999, 1, 2, payload);
  t2.wait();
  EXPECT_EQ(a->stats().sends, 0u);  // nothing actually injected
}

TEST_F(FabricTest, RegistrationCacheMakesRepeatsCheap) {
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  std::vector<char> buffer(1 << 20);

  const auto t0 = sim::now();
  a->register_memory(buffer.data(), buffer.size());
  const auto cold = sim::now() - t0;

  const auto t1 = sim::now();
  a->register_memory(buffer.data(), buffer.size());
  const auto warm = sim::now() - t1;
  // Cold: 25us + 40us/MB = ~65us. Warm: ~0.2us.
  EXPECT_GE(cold, sim::us(50));
  EXPECT_LT(warm * 10, cold);
  const auto stats = a->stats();
  EXPECT_EQ(stats.registrations, 1u);
  EXPECT_EQ(stats.registration_hits, 1u);
}

TEST_F(FabricTest, RegistrationCacheKeysOnAddressAndLength) {
  // The cache is keyed on the exact (addr, len) pair: neither a prefix of a
  // registered buffer nor a same-sized buffer elsewhere may alias it.
  sim::set_time_scale(0.0);
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  std::vector<char> buffer(8192);
  const char* base = buffer.data();

  a->register_memory(base, 4096);
  a->register_memory(base, 2048);         // same address, other length
  a->register_memory(base + 4096, 4096);  // other address, same length
  EXPECT_EQ(a->stats().registrations, 3u);
  EXPECT_EQ(a->stats().registration_hits, 0u);

  a->register_memory(base, 2048);
  a->register_memory(base + 4096, 4096);
  EXPECT_EQ(a->stats().registrations, 3u);
  EXPECT_EQ(a->stats().registration_hits, 2u);
}

TEST_F(FabricTest, RegistrationCacheStaysBoundedAndKeepsHotBuffersHot) {
  // A stream of one-off buffers (zero-copy iset values) cycles through the
  // cache instead of growing it, while a buffer reused between them (an
  // iget destination) keeps hitting.
  sim::set_time_scale(0.0);
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  std::vector<char> hot(4096);
  std::vector<char> pool(64);
  a->register_memory(hot.data(), hot.size());
  const std::size_t cold = kRegCacheCapacity + 1000;
  for (std::size_t i = 0; i < cold; ++i) {
    // Distinct (addr, len) pairs without distinct allocations.
    a->register_memory(pool.data() + i % 64, 1 + i / 64);
    a->register_memory(hot.data(), hot.size());
  }
  const EndpointStats stats = a->stats();
  EXPECT_EQ(stats.registrations, cold + 1);
  EXPECT_EQ(stats.registration_hits, cold);
  // Live regions = registrations - evictions, held at the bound.
  EXPECT_EQ(stats.registrations - stats.registration_evictions,
            kRegCacheCapacity);

  // The oldest one-off region was deregistered: it registers cold again.
  a->register_memory(pool.data(), 1);
  EXPECT_EQ(a->stats().registrations, cold + 2);
}

TEST_F(FabricTest, ManyMessagesArriveInOrderPerPair) {
  sim::set_time_scale(0.05);
  Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  for (std::uint64_t i = 0; i < 200; ++i) {
    a->send(b->id(), 1, i, make_value(i, 128));
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto msg = b->recv();
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg.value().wr_id, i);
    EXPECT_EQ(msg.value().payload, make_value(i, 128));
  }
}

}  // namespace
}  // namespace hykv::net
