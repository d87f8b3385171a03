// Caller-driven completion (DESIGN.md §5, "Who completes a request"). A
// blocking op takes the client's progress token before it registers its
// request and pops its own reply; the RX thread holds the token only while
// requests are pending and no caller drives. These cases pin down both
// sides: who completes on an idle client, blocking ops mixed with in-flight
// igets, stale duplicate replies popped by the caller, and teardown with the
// RX thread parked. Every completion path touches the pending map, the
// bounce pool and the token from two threads, so the suite carries the
// `stress` label for the sanitizer CI jobs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "net/fabric.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TestBedConfig small_bed() {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  return cfg;
}

std::string value_of(const std::string& key) { return "value-of-" + key; }

void expect_idle(const client::Client& client, const TestBedConfig& cfg) {
  EXPECT_EQ(client.pending_requests(), 0u);
  EXPECT_EQ(client.free_bounce_slots(), cfg.client_bounce_slots);
}

TEST_F(ProgressTest, BlockingOpsOnAnIdleClientCompleteOnTheCaller) {
  const TestBedConfig cfg = small_bed();
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr int kKeys = 100;
  std::vector<char> out;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "idle-" + std::to_string(i);
    const std::string value = value_of(key);
    ASSERT_EQ(client->set(key, {value.data(), value.size()}), StatusCode::kOk);
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    ASSERT_EQ(std::string(out.begin(), out.end()), value);
  }
  // Nothing else was pending, so every reply was popped by its own waiter.
  EXPECT_EQ(client->counters().caller_completions, 2u * kKeys);
  expect_idle(*client, cfg);
}

TEST_F(ProgressTest, BlockingOpsBesideInFlightIgetsReturnTheirOwnValues) {
  const TestBedConfig cfg = small_bed();
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr std::size_t kIgets = 64;
  std::vector<std::string> keys(kIgets);
  for (std::size_t i = 0; i < kIgets; ++i) {
    keys[i] = "inflight-" + std::to_string(i);
    const std::string value = value_of(keys[i]);
    ASSERT_EQ(client->set(keys[i], {value.data(), value.size()}),
              StatusCode::kOk);
  }
  for (int round = 0; round < 20; ++round) {
    std::vector<std::unique_ptr<client::Request>> requests(kIgets);
    std::vector<std::vector<char>> dests(kIgets, std::vector<char>(256));
    for (std::size_t i = 0; i < kIgets; ++i) {
      requests[i] = std::make_unique<client::Request>();
      ASSERT_EQ(client->iget(keys[i], dests[i], *requests[i]), StatusCode::kOk);
    }
    // The igets woke the RX thread, which keeps the token while they are
    // pending: these blocking ops complete on whichever thread pops them.
    const std::string key = "beside-" + std::to_string(round);
    const std::string value = value_of(key);
    ASSERT_EQ(client->set(key, {value.data(), value.size()}), StatusCode::kOk);
    std::vector<char> out;
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    ASSERT_EQ(std::string(out.begin(), out.end()), value) << "round " << round;

    for (std::size_t i = 0; i < kIgets; ++i) {
      client->wait(*requests[i]);
      ASSERT_EQ(requests[i]->status(), StatusCode::kOk);
      ASSERT_EQ(std::string(dests[i].data(), requests[i]->value_length()),
                value_of(keys[i]));
    }
  }
  expect_idle(*client, cfg);
  const auto sc = bed.server(0).counters();
  EXPECT_EQ(sc.requests, sc.ops_sum());
}

TEST_F(ProgressTest, StaleDuplicateRepliesPoppedByTheCallerAreDropped) {
  TestBedConfig cfg = small_bed();
  cfg.fabric_faults.duplicate_rate = 0.3;
  cfg.fabric_faults.seed = 0xD0B1E;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr int kKeys = 100;
  std::vector<char> out;
  for (int i = 0; i < kKeys; ++i) {
    // A fresh key per op: a duplicated set request executes twice, which
    // must not be able to revert a later write of the same key.
    const std::string key = "dup-" + std::to_string(i);
    const std::string value = value_of(key);
    ASSERT_EQ(client->set(key, {value.data(), value.size()}), StatusCode::kOk);
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    ASSERT_EQ(std::string(out.begin(), out.end()), value) << key;
  }
  // Each ghost reply trails its original, so the next op's caller pops it
  // first: it completes nothing and is not counted.
  EXPECT_EQ(client->counters().caller_completions, 2u * kKeys);
  const auto client_stats =
      bed.fabric().endpoint(client->endpoint_id())->stats();
  EXPECT_GT(client_stats.recvs, 2u * kKeys);
  expect_idle(*client, cfg);
  const auto sc = bed.server(0).counters();
  EXPECT_EQ(sc.requests, sc.ops_sum());
}

TEST_F(ProgressTest, DestroyWithIgetsPendingAndRxParkedTerminates) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  // A server that never answers: the igets stay pending until teardown.
  auto silent = fabric.create_endpoint("silent-server");

  constexpr std::size_t kIgets = 8;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::unique_ptr<client::Request>> requests(kIgets);
    std::vector<std::vector<char>> dests(kIgets, std::vector<char>(64));
    {
      client::ClientConfig ccfg;
      ccfg.servers = {silent->id()};
      ccfg.bounce_slots = 4;
      ccfg.bounce_slot_bytes = 4096;
      client::Client client(fabric, ccfg);
      // Idle: the RX thread is parked with nothing pending.
      EXPECT_EQ(client.pending_requests(), 0u);
      EXPECT_EQ(client.free_bounce_slots(), ccfg.bounce_slots);
      for (std::size_t i = 0; i < kIgets; ++i) {
        requests[i] = std::make_unique<client::Request>();
        ASSERT_EQ(client.iget(make_key(i), dests[i], *requests[i]),
                  StatusCode::kOk);
      }
      // Destroyed at once: the RX thread may still be parked on its wake-up
      // or already blocked in recv(); either way teardown must finish.
    }
    for (const auto& req : requests) {
      ASSERT_TRUE(req->done()) << "round " << round;
      EXPECT_EQ(req->status(), StatusCode::kShutdown);
    }
  }
}

}  // namespace
}  // namespace hykv
