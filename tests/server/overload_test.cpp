// Overload control end to end (DESIGN.md §8): server-side admission
// shedding with kBusy, expired-on-arrival drops from propagated deadlines,
// the client's shared retry-token budget, the non-blocking fail-fast window,
// and -- critically -- the zero-overhead guarantee that with every knob at
// its default the wire bytes and counters are exactly the pre-overload
// behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "net/fabric.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class OverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

// ---------------------------------------------------------------------------
// Expired-on-arrival: a raw endpoint lets the test forge a request whose
// propagated deadline is already in the past -- fully deterministic.

TEST_F(OverloadTest, ExpiredOnArrivalDroppedBeforeStorePhase) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  auto raw = bed.fabric().create_endpoint("forger");
  const net::EndpointId server = bed.server(0).endpoint_id();

  const std::string value = "must-not-be-stored";
  const auto inner = server::encode_request(
      {.key = "doomed", .value = {value.data(), value.size()}});

  // deadline_ns = 1 is epoch+1ns: expired for any running steady clock.
  raw->send(server, server::kOpSet, 1,
            server::with_deadline(1, inner));
  auto resp = raw->recv();
  ASSERT_TRUE(resp.ok());
  const auto decoded = server::decode_response(resp.value().payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, StatusCode::kBusy);

  // A far-future deadline passes through and the op executes normally.
  const auto forever = server::with_deadline(
      std::numeric_limits<std::int64_t>::max() / 2, inner);
  raw->send(server, server::kOpSet, 2, forever);
  resp = raw->recv();
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(server::decode_response(resp.value().payload).has_value());
  EXPECT_EQ(server::decode_response(resp.value().payload)->status,
            StatusCode::kOk);

  // A batch frame under an expired deadline: every op is expired on
  // arrival and answered kBusy in one batched reply, and none is stored.
  const std::string keys[] = {"doomed-0", "doomed-1", "doomed-2"};
  std::vector<std::vector<char>> bodies;
  std::vector<server::BatchItem> items;
  for (std::uint64_t i = 0; i < 3; ++i) {
    bodies.push_back(server::encode_request(
        {.key = keys[i], .value = {value.data(), value.size()}}));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    items.push_back({.opcode = server::kOpSet, .wr_id = 10 + i,
                     .payload = bodies[i]});
  }
  raw->send(server, server::kOpBatch, 10,
            server::with_deadline(1, server::encode_batch(items)));
  resp = raw->recv();
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().opcode, server::kOpBatchResponse);
  const auto replies = server::decode_batch_response(resp.value().payload);
  ASSERT_TRUE(replies.has_value());
  ASSERT_EQ(replies->size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*replies)[i].wr_id, 10 + i);
    const auto busy = server::decode_response((*replies)[i].payload);
    ASSERT_TRUE(busy.has_value());
    EXPECT_EQ(busy->status, StatusCode::kBusy);
  }

  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.expired_on_arrival, 4u);
  EXPECT_EQ(counters.sets, 1u);  // only the live-deadline set executed
  EXPECT_EQ(counters.requests, 5u);
  EXPECT_EQ(counters.requests, counters.ops_sum());

  // The expired sets had no side effects.
  auto client = bed.make_client("checker");
  std::vector<char> out;
  EXPECT_EQ(client->get("doomed", out), StatusCode::kOk);  // from request 2
  for (const std::string& key : keys) {
    EXPECT_EQ(client->get(key, out), StatusCode::kNotFound) << key;
  }
  raw->close();
}

// ---------------------------------------------------------------------------
// Zero overhead at defaults: a fake server captures the exact wire bytes.
// With every overload knob off the frames must be byte-for-byte the
// pre-overload encodings -- no deadline header, no behaviour change.

TEST_F(OverloadTest, DefaultsAreByteForBytePreOverload) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto fake_server = fabric.create_endpoint("fake-server");

  std::atomic<bool> saw_deadline{false};
  std::vector<char> captured;
  std::thread echo([&] {
    while (true) {
      auto msg = fake_server->recv();
      if (!msg.ok()) break;
      if (server::split_deadline(msg.value().payload).deadline_ns != 0) {
        saw_deadline.store(true);
      }
      if (captured.empty()) captured = msg.value().payload;
      fake_server->send(msg.value().src, server::kOpResponse,
                        msg.value().wr_id,
                        server::encode_response(StatusCode::kOk, 0));
    }
  });

  {
    client::ClientConfig ccfg;
    ccfg.servers = {fake_server->id()};
    // Deadlines on, every overload knob at its default: the wire must not
    // change. (propagate_deadline defaults to false.)
    ccfg.op_deadline = sim::ms(500);
    auto client = std::make_unique<client::Client>(fabric, ccfg);

    const std::string value = "payload-bytes";
    ASSERT_EQ(client->set("a-key", {value.data(), value.size()}, 7, 60),
              StatusCode::kOk);
    EXPECT_FALSE(saw_deadline.load());
    const auto expected = server::encode_request(
        {.key = "a-key",
         .value = {value.data(), value.size()},
         .flags = 7,
         .expiration = 60});
    ASSERT_EQ(captured.size(), expected.size());
    EXPECT_EQ(std::memcmp(captured.data(), expected.data(), expected.size()), 0);

    const auto counters = client->counters();
    EXPECT_EQ(counters.busy, 0u);
    EXPECT_EQ(counters.busy_fail_fast, 0u);
    EXPECT_EQ(counters.retry_budget_exhausted, 0u);
  }
  fake_server->close();
  echo.join();
}

TEST_F(OverloadTest, PropagateDeadlineWrapsTheFrame) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto fake_server = fabric.create_endpoint("fake-server");

  std::atomic<std::int64_t> seen_deadline{0};
  std::thread echo([&] {
    while (true) {
      auto msg = fake_server->recv();
      if (!msg.ok()) break;
      const auto env = server::split_deadline(msg.value().payload);
      if (env.deadline_ns != 0) seen_deadline.store(env.deadline_ns);
      // Reply against the *inner* frame like the real server does.
      fake_server->send(msg.value().src, server::kOpResponse,
                        msg.value().wr_id,
                        server::encode_response(StatusCode::kOk, 0));
    }
  });

  {
    client::ClientConfig ccfg;
    ccfg.servers = {fake_server->id()};
    ccfg.op_deadline = sim::ms(500);
    ccfg.propagate_deadline = true;
    auto client = std::make_unique<client::Client>(fabric, ccfg);

    const auto before = std::chrono::steady_clock::now().time_since_epoch();
    const std::string value = "v";
    ASSERT_EQ(client->set("k", {value.data(), value.size()}), StatusCode::kOk);
    const std::int64_t deadline = seen_deadline.load();
    ASSERT_NE(deadline, 0);  // the header arrived
    // Absolute steady-clock deadline: after issue time, within op_deadline+.
    EXPECT_GT(deadline, before.count());
    EXPECT_LT(deadline, (std::chrono::steady_clock::now().time_since_epoch() +
                         sim::ms(500)).count());
  }
  fake_server->close();
  echo.join();
}

// ---------------------------------------------------------------------------
// Retry budget: a black-hole server forces timeouts; the token bucket must
// bound retries and refill on success.

TEST_F(OverloadTest, RetryBudgetBoundsRetriesAndRefillsOnSuccess) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto fake_server = fabric.create_endpoint("fake-server");

  std::atomic<bool> respond{false};
  std::thread echo([&] {
    while (true) {
      auto msg = fake_server->recv();
      if (!msg.ok()) break;
      if (!respond.load()) continue;  // black hole: swallow the request
      fake_server->send(msg.value().src, server::kOpResponse,
                        msg.value().wr_id,
                        server::encode_response(StatusCode::kOk, 0));
    }
  });

  {
    client::ClientConfig ccfg;
    ccfg.servers = {fake_server->id()};
    ccfg.op_deadline = sim::ms(60);
    ccfg.max_retries = 5;
    ccfg.retry_budget = 1;  // one retry in the bucket
    ccfg.failover.eject_after = 1000000;  // keep ejection out of this test
    auto client = std::make_unique<client::Client>(fabric, ccfg);
    const std::string value = "v";

    // Silent server: attempt 0 times out, retry 1 spends the only token,
    // retries 2..5 are skipped (budget dry) -- the op ends kTimedOut.
    EXPECT_EQ(client->set("k", {value.data(), value.size()}),
              StatusCode::kTimedOut);
    auto counters = client->counters();
    EXPECT_EQ(counters.retries, 1u);
    EXPECT_GE(counters.retry_budget_exhausted, 1u);

    // A healthy round trip refunds the token...
    respond.store(true);
    EXPECT_EQ(client->set("k", {value.data(), value.size()}), StatusCode::kOk);

    // ...so the next black-hole op can afford exactly one retry again.
    respond.store(false);
    EXPECT_EQ(client->set("k", {value.data(), value.size()}),
              StatusCode::kTimedOut);
    counters = client->counters();
    EXPECT_EQ(counters.retries, 2u);
  }
  fake_server->close();
  echo.join();
}

// ---------------------------------------------------------------------------
// Fail-fast window: with max_pending_per_server in force, the non-blocking
// issue path refuses (kBusy) instead of queueing unbounded work.

TEST_F(OverloadTest, FailFastWindowBoundsNonBlockingIssues) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto fake_server = fabric.create_endpoint("fake-server");

  std::atomic<bool> respond{false};
  std::thread echo([&] {
    while (true) {
      auto msg = fake_server->recv();
      if (!msg.ok()) break;
      while (!respond.load() && !fake_server->closed()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      fake_server->send(msg.value().src, server::kOpResponse,
                        msg.value().wr_id,
                        server::encode_response(StatusCode::kOk, 0));
    }
  });

  {
    client::ClientConfig ccfg;
    ccfg.servers = {fake_server->id()};
    ccfg.max_pending_per_server = 2;
    auto client = std::make_unique<client::Client>(fabric, ccfg);

    const std::string value = "v";
    client::Request r1, r2, r3;
    ASSERT_EQ(client->iset("k1", {value.data(), value.size()}, 0, 0, r1),
              StatusCode::kOk);
    ASSERT_EQ(client->iset("k2", {value.data(), value.size()}, 0, 0, r2),
              StatusCode::kOk);
    // Window of 2 is full: the third issue is refused locally -- kBusy
    // before any queueing, and the Request was never registered.
    EXPECT_EQ(client->iset("k3", {value.data(), value.size()}, 0, 0, r3),
              StatusCode::kBusy);
    EXPECT_EQ(client->counters().busy_fail_fast, 1u);
    EXPECT_EQ(client->pending_requests(), 2u);

    // Draining the window re-opens it.
    respond.store(true);
    client->wait(r1);
    client->wait(r2);
    EXPECT_EQ(r1.status(), StatusCode::kOk);
    EXPECT_EQ(r2.status(), StatusCode::kOk);
    ASSERT_EQ(client->iset("k3", {value.data(), value.size()}, 0, 0, r3),
              StatusCode::kOk);
    client->wait(r3);
    EXPECT_EQ(r3.status(), StatusCode::kOk);
    EXPECT_EQ(client->pending_requests(), 0u);
  }
  fake_server->close();
  echo.join();
}

// ---------------------------------------------------------------------------
// Server admission: an async server with a tiny admission bound sheds part
// of a burst with kBusy instead of stalling the receive loop, and the
// requests == ops_sum() invariant holds with shed in the sum. The burst goes
// out once as plain frames (batch_max_ops 1) and once coalesced (8), where a
// shed batch frame answers each of its ops with its own kBusy.

class OverloadAdmissionTest
    : public OverloadTest,
      public ::testing::WithParamInterface<std::size_t> {};

TEST_P(OverloadAdmissionTest, AsyncAdmissionShedsBurstWithBusy) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.total_server_memory = 32 << 20;
  cfg.server.processing_threads = 1;
  cfg.server.admission_queue_limit = 1;  // shed whenever one request waits
  cfg.client_batch_max_ops = GetParam();
  TestBed bed(cfg);
  auto client = bed.make_client("burster");

  constexpr std::size_t kBurst = 512;
  constexpr std::size_t kValueBytes = 4 << 10;
  std::vector<std::vector<char>> values(kBurst);
  std::vector<std::unique_ptr<client::Request>> requests;
  requests.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    values[i] = make_value(i, kValueBytes);
    requests.push_back(std::make_unique<client::Request>());
    ASSERT_EQ(client->iset(make_key(i), values[i], 0, 0, *requests[i]),
              StatusCode::kOk);
  }
  std::size_t ok_count = 0;
  std::size_t busy_count = 0;
  for (auto& req : requests) {
    client->wait(*req);  // every request terminates -- kOk or kBusy
    if (req->status() == StatusCode::kOk) {
      ++ok_count;
    } else if (req->status() == StatusCode::kBusy) {
      ++busy_count;
    } else {
      ADD_FAILURE() << "unexpected status " << to_string(req->status());
    }
  }
  EXPECT_EQ(ok_count + busy_count, kBurst);
  EXPECT_GT(busy_count, 0u) << "a 512-burst against a 1-deep admission queue "
                               "must shed";
  EXPECT_GT(ok_count, 0u);

  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.shed, busy_count);
  EXPECT_EQ(counters.sets, ok_count);
  EXPECT_EQ(counters.requests, counters.ops_sum());
  if (GetParam() > 1) {
    EXPECT_GT(counters.batches, 0u) << "the burst must coalesce";
  }
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->counters().busy, busy_count);

  // A shed server is alive, never ejected: the ring took no strikes.
  EXPECT_EQ(client->ring().dead_count(), 0u);

  // The stats wire exposes the shed count.
  const auto stats = client->stats_text(0, client::StatsKind::kCounters);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("shed "), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(BatchMaxOps, OverloadAdmissionTest,
                         ::testing::Values(std::size_t{1}, std::size_t{8}),
                         [](const auto& param_info) {
                           return "batch" + std::to_string(param_info.param);
                         });

// With the knobs at defaults the same burst never sheds: blocking-push
// backpressure stalls the receive loop instead (pre-overload behaviour).
TEST_F(OverloadTest, DefaultAsyncServerNeverSheds) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.total_server_memory = 32 << 20;
  cfg.server.processing_threads = 1;
  TestBed bed(cfg);
  auto client = bed.make_client("burster");

  constexpr std::size_t kBurst = 128;
  std::vector<std::vector<char>> values(kBurst);
  std::vector<std::unique_ptr<client::Request>> requests;
  for (std::size_t i = 0; i < kBurst; ++i) {
    values[i] = make_value(i, 4 << 10);
    requests.push_back(std::make_unique<client::Request>());
    ASSERT_EQ(client->iset(make_key(i), values[i], 0, 0, *requests[i]),
              StatusCode::kOk);
  }
  for (auto& req : requests) {
    client->wait(*req);
    EXPECT_EQ(req->status(), StatusCode::kOk);
  }
  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.expired_on_arrival, 0u);
  EXPECT_EQ(counters.sets, kBurst);
  EXPECT_EQ(counters.requests, counters.ops_sum());
}

}  // namespace
}  // namespace hykv
