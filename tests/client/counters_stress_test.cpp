// Lock-free counter slots under traffic. A side thread keeps snapshotting
// the client's counters and both endpoints' stats while the client runs
// blocking set/get and bursts of iset/iget with deadlines, retries and a
// retry-token budget switched on (so every response also runs the token
// refund). Every snapshot must be monotone, and once the traffic is done the
// totals must be exact: the client counted the ops it was asked for, every
// message one side sent the other side received, and the server's
// requests == ops_sum(). Labelled `stress` for the TSan/ASan/UBSan CI jobs:
// the application, TX, RX, server and polling threads all touch the same
// counter cells.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
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

template <typename Family>
void expect_monotone(const Family& before, const Family& after) {
  Family::for_each_field([&](std::string_view name, auto field) {
    EXPECT_GE(after.*field, before.*field) << name;
  });
}

TEST(CountersStressTest, ExactTotalsWhilePolledUnderTraffic) {
  sim::init_precise_timing();
  sim::set_time_scale(0.02);

  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  cfg.client_op_deadline = sim::ms(10000);
  cfg.client_max_retries = 2;
  cfg.client_retry_budget = 8;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");
  const auto client_ep = bed.fabric().endpoint(client->endpoint_id());
  const auto server_ep = bed.fabric().endpoint(bed.server(0).endpoint_id());
  ASSERT_NE(client_ep, nullptr);
  ASSERT_NE(server_ep, nullptr);

  std::atomic<bool> stop{false};
  std::uint64_t polls = 0;
  std::thread poller([&] {
    client::ClientCounters client_last;
    net::EndpointStats client_ep_last;
    net::EndpointStats server_ep_last;
    while (!stop.load(std::memory_order_acquire)) {
      const client::ClientCounters client_now = client->counters();
      const net::EndpointStats client_ep_now = client_ep->stats();
      const net::EndpointStats server_ep_now = server_ep->stats();
      expect_monotone(client_last, client_now);
      expect_monotone(client_ep_last, client_ep_now);
      expect_monotone(server_ep_last, server_ep_now);
      client_last = client_now;
      client_ep_last = client_ep_now;
      server_ep_last = server_ep_now;
      ++polls;
    }
  });

  constexpr std::uint64_t kRounds = 100;
  constexpr std::uint64_t kBurst = 4;  // isets and igets per round
  const std::vector<char> burst_value = make_value(0, 256);
  std::vector<client::Request> isets(kBurst);
  std::vector<client::Request> igets(kBurst);
  std::vector<std::vector<char>> dests(kBurst, std::vector<char>(1024));
  std::vector<char> out;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::string key = make_key(round);
    ASSERT_EQ(client->set(key, make_value(round, 256)), StatusCode::kOk);
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    std::vector<std::string> burst_keys;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      burst_keys.push_back(make_key(kRounds + round * kBurst + i));
    }
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      ASSERT_EQ(client->iset(burst_keys[i], burst_value, 0, 0, isets[i]),
                StatusCode::kOk);
      ASSERT_EQ(client->iget(key, dests[i], igets[i]), StatusCode::kOk);
    }
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      client->wait(isets[i]);
      client->wait(igets[i]);
      ASSERT_EQ(isets[i].status(), StatusCode::kOk);
      ASSERT_EQ(igets[i].status(), StatusCode::kOk);
    }
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls, 0u);

  // Quiescent: every op completed, so every request and response has been
  // both sent and received, and each side counted it before the op could
  // complete.
  const client::ClientCounters c = client->counters();
  EXPECT_EQ(c.sets, kRounds);
  EXPECT_EQ(c.gets, kRounds);
  EXPECT_EQ(c.nonblocking_issued, 2 * kBurst * kRounds);
  EXPECT_EQ(c.hits, kRounds + kBurst * kRounds);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.timeouts, 0u);
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.retry_budget_exhausted, 0u);

  const std::uint64_t ops = 2 * kRounds + 2 * kBurst * kRounds;
  const net::EndpointStats client_net = client_ep->stats();
  const net::EndpointStats server_net = server_ep->stats();
  EXPECT_EQ(client_net.sends, ops);
  EXPECT_EQ(client_net.sends, server_net.recvs);
  EXPECT_EQ(server_net.sends, client_net.recvs);

  const server::ServerCounters s = bed.server(0).counters();
  EXPECT_EQ(s.requests, ops);
  EXPECT_EQ(s.requests, s.ops_sum());
  EXPECT_EQ(s.sets, kRounds + kBurst * kRounds);
  EXPECT_EQ(s.gets, kRounds + kBurst * kRounds);
  EXPECT_EQ(client->pending_requests(), 0u);
}

}  // namespace
}  // namespace hykv
