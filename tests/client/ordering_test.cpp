// Per-client FIFO order across the two posting paths. A blocking op is
// posted on the caller's thread only while the TX engine is idle; otherwise
// it queues behind the engine's backlog. Here a burst of isets to one key
// builds that backlog (on ipoib each frame pays a 3 us doorbell on the TX
// thread), then a blocking set of the same key follows. If the set ever
// overtook a queued iset, a later get -- or the value left once every iset
// has completed -- would show an iset's value instead of the set's.
// A second test times a queued blocking set out behind such a backlog and
// checks that its bounce slot is not recycled before the engine reads it.
// Labelled `stress` for the TSan/ASan/UBSan CI jobs: the inline post races
// the TX engine's last send and its backlog decrement.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class OrderingTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(1.0);  // the real doorbell cost builds the backlog
  }
};

std::string value_string(std::vector<char> bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST_P(OrderingTest, BlockingSetNeverOvertakesQueuedIsets) {
  TestBedConfig cfg;
  cfg.design = Design::kIpoibMem;
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  cfg.client_batch_max_ops = GetParam();
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr int kRounds = 200;
  constexpr std::size_t kIsetsPerRound = 32;
  const std::string key = "ordered-key";
  std::vector<std::string> iset_values(kIsetsPerRound);
  std::vector<std::unique_ptr<client::Request>> requests(kIsetsPerRound);
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kIsetsPerRound; ++i) {
      iset_values[i] = "iset-" + std::to_string(round) + "-" + std::to_string(i);
      requests[i] = std::make_unique<client::Request>();
      ASSERT_EQ(client->iset(key,
                             {iset_values[i].data(), iset_values[i].size()}, 0,
                             0, *requests[i]),
                StatusCode::kOk);
    }
    const std::string expected = "blocking-set-" + std::to_string(round);
    ASSERT_EQ(client->set(key, {expected.data(), expected.size()}),
              StatusCode::kOk);

    std::vector<char> out;
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    ASSERT_EQ(value_string(out), expected) << "round " << round;

    for (auto& req : requests) {
      client->wait(*req);
      ASSERT_EQ(req->status(), StatusCode::kOk);
    }
    ASSERT_EQ(client->get(key, out), StatusCode::kOk);
    ASSERT_EQ(value_string(out), expected) << "round " << round;
  }
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
  const auto sc = bed.server(0).counters();
  EXPECT_EQ(sc.requests, sc.ops_sum());
  EXPECT_EQ(sc.sets,
            static_cast<std::uint64_t>(kRounds) * (kIsetsPerRound + 1));
}

// With one bounce slot, a set that times out while still queued would, if
// cancel() freed its slot at once, hand that slot to the very next set,
// whose bytes the stale job would then carry under the old key. No deadline
// is propagated, so the server executes every stale set it receives.
TEST_P(OrderingTest, TimedOutQueuedSetNeverCarriesTheNextSetsBytes) {
  TestBedConfig cfg;
  cfg.design = Design::kIpoibMem;
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  cfg.client_batch_max_ops = GetParam();
  cfg.client_bounce_slots = 1;
  cfg.client_op_deadline = sim::us(100);
  cfg.client_max_retries = 0;
  // Timeouts here are the point of the test, not a sign of a dead server.
  cfg.client_failover.eject_after = std::numeric_limits<unsigned>::max();
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr int kRounds = 20;
  constexpr std::size_t kIsetsPerRound = 512;
  // The engine reads an iset's value whenever it gets to the job, which may
  // be after that iset timed out: one buffer outlives every round.
  const std::string backlog_value(64, 'b');
  std::vector<std::unique_ptr<client::Request>> requests(kIsetsPerRound);
  std::uint64_t sets_expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kIsetsPerRound; ++i) {
      requests[i] = std::make_unique<client::Request>();
      ASSERT_EQ(client->iset("backlog-" + std::to_string(i),
                             {backlog_value.data(), backlog_value.size()}, 0,
                             0, *requests[i]),
                StatusCode::kOk);
    }
    char suffix[8];
    std::snprintf(suffix, sizeof(suffix), "%04d", round);
    const std::string old_key = std::string("old-") + suffix;
    const std::string old_value = std::string("old-value-") + suffix;
    const std::string new_value = std::string("new-value-") + suffix;
    // Usually kTimedOut: both sets queue behind the iset backlog.
    (void)client->set(old_key, {old_value.data(), old_value.size()});
    (void)client->set(std::string("new-") + suffix,
                      {new_value.data(), new_value.size()});
    sets_expected += kIsetsPerRound + 2;

    // Every queued job is executed, timed out or not: wait until the server
    // has run them all, so the engine is idle again.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (bed.server(0).counters().sets < sets_expected) {
      ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "round " << round;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& req : requests) client->wait(*req);

    std::vector<char> out;
    StatusCode code = StatusCode::kTimedOut;
    for (int attempt = 0; attempt < 100 && code == StatusCode::kTimedOut;
         ++attempt) {
      code = client->get(old_key, out);
    }
    ASSERT_EQ(code, StatusCode::kOk) << "round " << round;
    ASSERT_EQ(value_string(out), old_value) << "round " << round;
  }
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
}

INSTANTIATE_TEST_SUITE_P(BatchMaxOps, OrderingTest,
                         ::testing::Values(std::size_t{1}, std::size_t{8}),
                         [](const auto& param_info) {
                           return "batch" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace hykv
