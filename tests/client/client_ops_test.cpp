// End-to-end tests for the extended op set (add/replace/append/prepend,
// incr/decr, touch, flush_all, stats) and the client-side timeout/cancel
// machinery, through the full client -> fabric -> server stack.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/compat.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "server/protocol.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class ClientOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }

  static TestBedConfig small_bed(Design design) {
    TestBedConfig cfg;
    cfg.design = design;
    cfg.total_server_memory = 8 << 20;
    cfg.server.manager.slab.slab_bytes = 256 << 10;
    return cfg;
  }

  static std::span<const char> bytes(const std::string& s) {
    return {s.data(), s.size()};
  }
};

TEST_F(ClientOpsTest, AddReplaceEndToEnd) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  EXPECT_EQ(client->replace("k", bytes("x")), StatusCode::kNotStored);
  EXPECT_EQ(client->add("k", bytes("one")), StatusCode::kOk);
  EXPECT_EQ(client->add("k", bytes("two")), StatusCode::kNotStored);
  EXPECT_EQ(client->replace("k", bytes("three"), 9), StatusCode::kOk);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(client->get("k", out, &flags), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "three");
  EXPECT_EQ(flags, 9u);
}

TEST_F(ClientOpsTest, AppendPrependEndToEnd) {
  TestBed bed(small_bed(Design::kHRdmaOptBlock));
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("k", bytes("core")), StatusCode::kOk);
  EXPECT_EQ(client->append("k", bytes(">")), StatusCode::kOk);
  EXPECT_EQ(client->prepend("k", bytes("<")), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("k", out), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "<core>");
  EXPECT_EQ(client->append("missing", bytes("x")), StatusCode::kNotStored);
}

TEST_F(ClientOpsTest, CountersEndToEnd) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("hits", bytes("41")), StatusCode::kOk);
  const auto up = client->incr("hits", 1);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value(), 42u);
  const auto down = client->decr("hits", 2);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down.value(), 40u);
  EXPECT_EQ(client->incr("absent", 1).status(), StatusCode::kNotFound);
  ASSERT_EQ(client->set("word", bytes("abc")), StatusCode::kOk);
  EXPECT_EQ(client->incr("word", 1).status(), StatusCode::kInvalidArgument);
}

TEST_F(ClientOpsTest, TouchEndToEnd) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("k", bytes("v"), 0, 3600), StatusCode::kOk);
  EXPECT_EQ(client->touch("k", -1), StatusCode::kOk);
  std::vector<char> out;
  EXPECT_EQ(client->get("k", out), StatusCode::kNotFound);
  EXPECT_EQ(client->touch("gone", 5), StatusCode::kNotFound);
}

TEST_F(ClientOpsTest, FlushAllClearsEveryServer) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.num_servers = 3;
  cfg.total_server_memory = 24 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  for (std::uint64_t i = 0; i < 60; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 256)), StatusCode::kOk);
  }
  ASSERT_EQ(client->flush_all(), StatusCode::kOk);
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 60; ++i) {
    EXPECT_EQ(client->get(make_key(i), out), StatusCode::kNotFound) << i;
  }
}

TEST_F(ClientOpsTest, StatsTextReportsCounters) {
  TestBed bed(small_bed(Design::kHRdmaDef));
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("k", bytes("v")), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("k", out), StatusCode::kOk);
  const auto stats = client->stats_text(0, client::StatsKind::kCounters);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("sets 1"), std::string::npos) << stats.value();
  EXPECT_NE(stats.value().find("gets 1"), std::string::npos);
  EXPECT_NE(stats.value().find("items 1"), std::string::npos);
  EXPECT_EQ(client->stats_text(99, client::StatsKind::kCounters).status(), StatusCode::kInvalidArgument);
}

// set stores a value larger than a bounce slot through a private copy; the
// blocking reads must fetch such a value back instead of failing with
// kBufferTooSmall.
TEST_F(ClientOpsTest, BlockingReadsFetchRepliesLargerThanABounceSlot) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.client_bounce_slot_bytes = 1024;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  // Each read below needs more room than the one before it.
  const auto latency = client->stats_text(0, client::StatsKind::kLatency);
  ASSERT_TRUE(latency.ok());
  EXPECT_GT(latency.value().size(), cfg.client_bounce_slot_bytes);

  const std::vector<char> big = make_value(7, 8 << 10);
  ASSERT_EQ(client->set("big", big), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("big", out), StatusCode::kOk);
  EXPECT_EQ(out, big);
  out.clear();
  std::uint64_t token = 0;
  ASSERT_EQ(client->gets("big", out, nullptr, &token), StatusCode::kOk);
  EXPECT_EQ(out, big);
  EXPECT_NE(token, 0u);
}

// mget's destinations are one bounce slot each; a larger value is fetched
// again the way a blocking get fetches it.
TEST_F(ClientOpsTest, MgetFetchesValuesLargerThanABounceSlot) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.client_bounce_slot_bytes = 1024;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  const std::vector<char> big = make_value(7, 8 << 10);
  const std::vector<char> small = make_value(8, 100);
  ASSERT_EQ(client->set("big", big), StatusCode::kOk);
  ASSERT_EQ(client->set("small", small), StatusCode::kOk);

  const std::vector<std::string> keys = {"small", "big", "missing"};
  const auto results = client->mget_status(keys);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[0].value(), small);
  ASSERT_TRUE(results[1].ok()) << static_cast<int>(results[1].status());
  EXPECT_EQ(results[1].value(), big);
  EXPECT_EQ(results[2].status(), StatusCode::kNotFound);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
  EXPECT_EQ(client->pending_requests(), 0u);
}

TEST_F(ClientOpsTest, NonblockingIssuedCountsOnlyTheApplicationsOwnCalls) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  constexpr std::uint64_t kOps = 20;

  // Blocking ops (and mget) share the non-blocking machinery but are not
  // the application's own iset/iget/bset/bget calls.
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    keys.push_back(make_key(i));
    ASSERT_EQ(client->set(keys.back(), make_value(i, 64)), StatusCode::kOk);
    std::vector<char> out;
    ASSERT_EQ(client->get(keys.back(), out), StatusCode::kOk);
  }
  ASSERT_EQ(client->del(keys.front()), StatusCode::kOk);
  (void)client->mget(keys);
  EXPECT_EQ(client->counters().nonblocking_issued, 0u);
  EXPECT_EQ(client->counters().sets, kOps);
  EXPECT_EQ(client->counters().gets, kOps);

  const auto value = make_value(7, 64);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    client::Request req;
    ASSERT_EQ(client->iset(keys[i], value, 0, 0, req), StatusCode::kOk);
    client->wait(req);
    ASSERT_EQ(req.status(), StatusCode::kOk);
  }
  EXPECT_EQ(client->counters().nonblocking_issued, kOps);

  // bset/bget/iget count too; a rejected empty key does not.
  std::vector<char> dest(64);
  client::Request req;
  ASSERT_EQ(client->bset(keys[0], value, 0, 0, req), StatusCode::kOk);
  client->wait(req);
  ASSERT_EQ(client->bget(keys[0], dest, req), StatusCode::kOk);
  client->wait(req);
  ASSERT_EQ(client->iget(keys[0], dest, req), StatusCode::kOk);
  client->wait(req);
  EXPECT_EQ(client->iset("", value, 0, 0, req), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->counters().nonblocking_issued, kOps + 3);
}

TEST_F(ClientOpsTest, WaitForCompletesNormallyWithinDeadline) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c");
  const auto value = make_value(1, 4096);
  client::Request req;
  ASSERT_EQ(client->iset("k", value, 0, 0, req), StatusCode::kOk);
  EXPECT_EQ(client->wait_for(req, sim::ms(2000)), StatusCode::kOk);
}

TEST_F(ClientOpsTest, WaitForTimesOutAndCancels) {
  // A request to a stopped server never completes; wait_for must cancel it
  // cleanly rather than hang (the request is unregistered afterwards).
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  bed.server(0).stop();
  const auto value = make_value(2, 1024);
  client::Request req;
  ASSERT_EQ(client->iset("k", value, 0, 0, req), StatusCode::kOk);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(client->wait_for(req, sim::ms(50)), StatusCode::kTimedOut);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_TRUE(req.done());
  EXPECT_EQ(req.status(), StatusCode::kTimedOut);
}

TEST_F(ClientOpsTest, CancelOnCompletedRequestReturnsRealStatus) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  const auto value = make_value(3, 512);
  client::Request req;
  ASSERT_EQ(client->iset("k", value, 0, 0, req), StatusCode::kOk);
  client->wait(req);
  EXPECT_EQ(client->cancel(req), StatusCode::kOk);  // already done
}

TEST_F(ClientOpsTest, CancelledBsetReleasesItsBounceSlot) {
  TestBedConfig cfg = small_bed(Design::kHRdmaOptNonbB);
  cfg.client_bounce_slots = 2;  // tiny pool to expose slot leaks
  // Keep the dead server selectable: this test is about slot recycling, not
  // failover (each cancelled attempt would otherwise eject it and turn the
  // later bsets into kServerDown fail-fasts).
  cfg.client_failover.eject_after = 1000;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  bed.server(0).stop();
  const auto value = make_value(4, 1024);
  // Each bset consumes a slot; cancel must return it or the third bset
  // would block forever.
  for (int i = 0; i < 6; ++i) {
    client::Request req;
    ASSERT_EQ(client->bset(make_key(static_cast<std::uint64_t>(i)), value, 0, 0, req),
              StatusCode::kOk);
    EXPECT_EQ(client->wait_for(req, sim::ms(20)), StatusCode::kTimedOut) << i;
  }
}

TEST_F(ClientOpsTest, CancelRacesLateResponseHarmlessly) {
  // Cancel from the application thread while the server's response is in
  // flight. Whatever side wins, the request must end terminal, the late
  // response must be swallowed as stale (the wr_id was unregistered), and
  // the client must stay fully usable -- no corrupted slots, no leaked
  // pending entries.
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.client_bounce_slots = 2;  // tiny pool: a leaked slot deadlocks fast
  // Cancel-wins iterations record ring failures against a healthy server;
  // disable ejection so every iteration exercises the race, not fail-fast.
  cfg.client_failover.eject_after = 1000;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  const auto value = make_value(5, 2048);
  int raced_completions = 0;
  for (int i = 0; i < 50; ++i) {
    client::Request req;
    ASSERT_EQ(client->bset(make_key(static_cast<std::uint64_t>(i)), value, 0,
                           0, req),
              StatusCode::kOk);
    const StatusCode code = client->cancel(req);
    // Either our cancel won (kTimedOut) or the completion raced in first.
    ASSERT_TRUE(code == StatusCode::kTimedOut || code == StatusCode::kOk) << i;
    EXPECT_TRUE(req.done()) << i;
    EXPECT_EQ(req.status(), code) << i;
    if (code == StatusCode::kOk) ++raced_completions;
  }
  // The client survived every outcome: a fresh round-trip still works and
  // nothing leaked.
  ASSERT_EQ(client->set("alive", bytes("yes")), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("alive", out), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "yes");
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
  (void)raced_completions;  // either interleaving is legal
}

TEST_F(ClientOpsTest, WaitForRacingCompletionNeverMisreports) {
  // Drive wait_for's timeout edge against live completions: with a timeout
  // in the same ballpark as the round-trip, both branches of the race get
  // exercised. The contract: the returned status equals the request's final
  // status, is terminal, and a timed-out request is really cancelled (its
  // late response is dropped as stale, not delivered to a reused wr_id).
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  // A run of timeout-wins iterations must not eject the healthy server.
  cfg.client_failover.eject_after = 1000;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  const auto value = make_value(6, 1024);
  int timed_out = 0;
  for (int i = 0; i < 50; ++i) {
    client::Request req;
    ASSERT_EQ(client->iset(make_key(static_cast<std::uint64_t>(i)), value, 0,
                           0, req),
              StatusCode::kOk);
    // Alternate between an instant deadline (completion must race to win)
    // and a tiny-but-plausible one.
    const auto timeout = (i % 2 == 0) ? sim::Nanos{0} : sim::us(200);
    const StatusCode code = client->wait_for(req, timeout);
    ASSERT_TRUE(code == StatusCode::kOk || code == StatusCode::kTimedOut) << i;
    EXPECT_TRUE(req.done()) << i;
    EXPECT_EQ(req.status(), code) << i;
    if (code == StatusCode::kTimedOut) ++timed_out;
  }
  EXPECT_EQ(client->pending_requests(), 0u);
  // Keys whose set timed out may or may not have landed; the store must
  // simply remain coherent -- reads return kOk or kNotFound, never garbage.
  std::vector<char> out;
  for (int i = 0; i < 50; ++i) {
    const StatusCode code = client->get(make_key(static_cast<std::uint64_t>(i)), out);
    ASSERT_TRUE(code == StatusCode::kOk || code == StatusCode::kNotFound) << i;
    if (ok(code)) {
      EXPECT_EQ(out, value) << i;
    }
  }
  (void)timed_out;
}

TEST_F(ClientOpsTest, CompatShimCoversExtendedOps) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  auto st = compat::memcached_wrap(*client);

  EXPECT_EQ(compat::memcached_add(&st, "n", 1, "5", 1, 0, 0), StatusCode::kOk);
  EXPECT_EQ(compat::memcached_add(&st, "n", 1, "9", 1, 0, 0),
            StatusCode::kNotStored);
  EXPECT_EQ(compat::memcached_replace(&st, "n", 1, "7", 1, 0, 0), StatusCode::kOk);
  std::uint64_t counter = 0;
  EXPECT_EQ(compat::memcached_increment(&st, "n", 1, 3, &counter), StatusCode::kOk);
  EXPECT_EQ(counter, 10u);
  EXPECT_EQ(compat::memcached_decrement(&st, "n", 1, 4, &counter), StatusCode::kOk);
  EXPECT_EQ(counter, 6u);
  EXPECT_EQ(compat::memcached_append(&st, "n", 1, "!", 1), StatusCode::kOk);
  EXPECT_EQ(compat::memcached_prepend(&st, "n", 1, "#", 1), StatusCode::kOk);
  std::size_t len = 0;
  compat::memcached_return error = StatusCode::kServerError;
  char* got = compat::memcached_get(&st, "n", 1, &len, nullptr, &error);
  ASSERT_EQ(error, StatusCode::kOk);
  EXPECT_EQ(std::string(got, len), "#6!");
  EXPECT_EQ(compat::memcached_touch(&st, "n", 1, -1), StatusCode::kOk);
  EXPECT_EQ(compat::memcached_flush(&st, 0), StatusCode::kOk);
  got = compat::memcached_get(&st, "n", 1, &len, nullptr, &error);
  EXPECT_EQ(got, nullptr);
}

TEST_F(ClientOpsTest, MgetFetchesManyKeysInOneBurst) {
  TestBedConfig cfg = small_bed(Design::kHRdmaOptNonbI);
  cfg.num_servers = 2;
  cfg.total_server_memory = 16 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < 40; ++i) {
    keys.push_back(make_key(i));
    if (i % 4 != 3) {  // leave every 4th key absent
      ASSERT_EQ(client->set(keys.back(), make_value(i, 2048)), StatusCode::kOk);
    }
  }
  const auto results = client->mget(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (std::uint64_t i = 0; i < 40; ++i) {
    if (i % 4 == 3) {
      EXPECT_FALSE(results[i].has_value()) << i;
    } else {
      ASSERT_TRUE(results[i].has_value()) << i;
      EXPECT_EQ(*results[i], make_value(i, 2048)) << i;
    }
  }
  // Empty input and empty-key entries are handled gracefully.
  EXPECT_TRUE(client->mget({}).empty());
  const std::vector<std::string> with_bad = {"", make_key(0)};
  const auto mixed = client->mget(with_bad);
  EXPECT_FALSE(mixed[0].has_value());
  EXPECT_TRUE(mixed[1].has_value());
}

TEST_F(ClientOpsTest, GetsCasEndToEnd) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("k", bytes("original"), 4), StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  std::uint64_t token = 0;
  ASSERT_EQ(client->gets("k", out, &flags, &token), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "original");
  EXPECT_EQ(flags, 4u);
  ASSERT_NE(token, 0u);

  // Lost-update protection: a racing writer bumps the version, the stale
  // CAS is rejected, a refreshed one succeeds.
  ASSERT_EQ(client->set("k", bytes("racer")), StatusCode::kOk);
  EXPECT_EQ(client->cas("k", bytes("mine"), token), StatusCode::kNotStored);
  ASSERT_EQ(client->gets("k", out, &flags, &token), StatusCode::kOk);
  EXPECT_EQ(client->cas("k", bytes("mine"), token), StatusCode::kOk);
  ASSERT_EQ(client->get("k", out), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "mine");

  EXPECT_EQ(client->cas("ghost", bytes("x"), 1), StatusCode::kNotFound);
  EXPECT_EQ(client->gets("ghost", out, nullptr, nullptr), StatusCode::kNotFound);
}

TEST_F(ClientOpsTest, ConcurrentCasLoopsLoseNoUpdates) {
  // Classic CAS correctness property: N clients each add K to a shared
  // counter via gets+cas retry loops; the final value must be exactly N*K.
  TestBed bed(small_bed(Design::kRdmaMem));
  {
    auto seed_client = bed.make_client("seed");
    ASSERT_EQ(seed_client->set("shared", bytes("0")), StatusCode::kOk);
  }
  constexpr int kThreads = 4;
  constexpr int kAddsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> cas_conflicts{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = bed.make_client("cas-" + std::to_string(t));
      for (int i = 0; i < kAddsEach; ++i) {
        while (true) {
          std::vector<char> raw;
          std::uint64_t token = 0;
          ASSERT_EQ(client->gets("shared", raw, nullptr, &token), StatusCode::kOk);
          const auto current = std::stoull(std::string(raw.begin(), raw.end()));
          const std::string next = std::to_string(current + 1);
          const StatusCode code =
              client->cas("shared", {next.data(), next.size()}, token);
          if (ok(code)) break;
          ASSERT_EQ(code, StatusCode::kNotStored);  // EXISTS: retry
          ++cas_conflicts;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  auto reader = bed.make_client("reader");
  std::vector<char> out;
  ASSERT_EQ(reader->get("shared", out), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()),
            std::to_string(kThreads * kAddsEach));
  // With 4 contending writers some conflicts are expected (not required).
  (void)cas_conflicts;
}

}  // namespace
}  // namespace hykv
