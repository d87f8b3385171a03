// End-to-end tests: real client library against a real server over the
// simulated fabric, covering the paper's full API surface.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "client/client.hpp"
#include "client/compat.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "server/server.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class ClientServerTest : public ::testing::Test {
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
};

TEST_F(ClientServerTest, BlockingSetGetDelete) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c0");
  const auto value = make_value(1, 32 << 10);
  ASSERT_EQ(client->set("alpha", value, 5), StatusCode::kOk);

  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(client->get("alpha", out, &flags), StatusCode::kOk);
  EXPECT_EQ(out, value);
  EXPECT_EQ(flags, 5u);

  ASSERT_EQ(client->del("alpha"), StatusCode::kOk);
  EXPECT_EQ(client->del("alpha"), StatusCode::kNotFound);
}

TEST_F(ClientServerTest, GetMissWithoutBackendReturnsNotFound) {
  TestBedConfig cfg = small_bed(Design::kHRdmaDef);  // hybrid: no backend
  TestBed bed(cfg);
  auto client = bed.make_client("c0");
  std::vector<char> out;
  EXPECT_EQ(client->get("missing", out), StatusCode::kNotFound);
}

TEST_F(ClientServerTest, GetMissHitsBackendAndRepopulates) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  TestBed bed(cfg);
  bed.backend().put("db-key", make_value(9, 4096));
  auto client = bed.make_client("c0");

  std::vector<char> out;
  ASSERT_EQ(client->get("db-key", out), StatusCode::kOk);  // miss -> backend
  EXPECT_EQ(out, make_value(9, 4096));
  EXPECT_EQ(bed.backend().fetches(), 1u);

  out.clear();
  ASSERT_EQ(client->get("db-key", out), StatusCode::kOk);  // now cached
  EXPECT_EQ(out, make_value(9, 4096));
  EXPECT_EQ(bed.backend().fetches(), 1u);  // no second backend trip
  // One backend fetch, timed as the client's miss_penalty span.
  const LatencyHistogram miss =
      client->span_latency(metrics::Span::kMissPenalty);
  EXPECT_EQ(miss.count(), 1u);
  EXPECT_GT(miss.sum_ns(), 0u);
}

TEST_F(ClientServerTest, NonBlockingIsetIgetRoundTrip) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c0");

  const auto value = make_value(3, 16 << 10);
  client::Request set_req;
  ASSERT_EQ(client->iset("nb-key", value, 7, 0, set_req), StatusCode::kOk);
  client->wait(set_req);
  EXPECT_TRUE(set_req.done());
  EXPECT_EQ(set_req.status(), StatusCode::kOk);

  std::vector<char> dest(32 << 10);
  client::Request get_req;
  ASSERT_EQ(client->iget("nb-key", dest, get_req), StatusCode::kOk);
  client->wait(get_req);
  ASSERT_EQ(get_req.status(), StatusCode::kOk);
  EXPECT_EQ(get_req.value_length(), value.size());
  EXPECT_EQ(get_req.flags(), 7u);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dest.begin()));
}

TEST_F(ClientServerTest, TestEventuallyReportsCompletion) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c0");
  const auto value = make_value(4, 64 << 10);
  client::Request req;
  ASSERT_EQ(client->iset("t-key", value, 0, 0, req), StatusCode::kOk);
  // Poll (memcached_test semantics) until completion.
  int polls = 0;
  while (!client->test(req)) {
    sim::advance(sim::us(50));
    ASSERT_LT(++polls, 100000) << "request never completed";
  }
  EXPECT_EQ(req.status(), StatusCode::kOk);
}

TEST_F(ClientServerTest, BsetAllowsImmediateBufferReuse) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbB));
  auto client = bed.make_client("c0");

  std::vector<char> buffer = make_value(5, 8 << 10);
  const std::vector<char> original = buffer;
  client::Request req;
  ASSERT_EQ(client->bset("reuse-key", buffer, 0, 0, req), StatusCode::kOk);
  // Clobber the user buffer immediately -- bset guarantees this is safe.
  std::memset(buffer.data(), 'X', buffer.size());
  client->wait(req);
  ASSERT_EQ(req.status(), StatusCode::kOk);

  std::vector<char> out;
  ASSERT_EQ(client->get("reuse-key", out), StatusCode::kOk);
  EXPECT_EQ(out, original) << "server must have the pre-clobber bytes";
}

TEST_F(ClientServerTest, BgetFetchesIntoUserBuffer) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbB));
  auto client = bed.make_client("c0");
  const auto value = make_value(6, 10 << 10);
  ASSERT_EQ(client->set("bg-key", value), StatusCode::kOk);

  std::vector<char> dest(16 << 10);
  client::Request req;
  ASSERT_EQ(client->bget("bg-key", dest, req), StatusCode::kOk);
  client->wait(req);
  ASSERT_EQ(req.status(), StatusCode::kOk);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), dest.begin()));
}

TEST_F(ClientServerTest, IgetBufferTooSmallReportsNeededLength) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c0");
  const auto value = make_value(7, 8192);
  ASSERT_EQ(client->set("big-key", value), StatusCode::kOk);

  std::vector<char> tiny(100);
  client::Request req;
  ASSERT_EQ(client->iget("big-key", tiny, req), StatusCode::kOk);
  client->wait(req);
  EXPECT_EQ(req.status(), StatusCode::kBufferTooSmall);
  EXPECT_EQ(req.value_length(), 8192u);
}

TEST_F(ClientServerTest, EmptyKeyRejectedOnAllApis) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto client = bed.make_client("c0");
  const auto value = make_value(1, 10);
  std::vector<char> dest(10);
  client::Request req;
  EXPECT_EQ(client->set("", value), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->iset("", value, 0, 0, req), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->bset("", value, 0, 0, req), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->iget("", dest, req), StatusCode::kInvalidArgument);
  EXPECT_EQ(client->del(""), StatusCode::kInvalidArgument);
}

TEST_F(ClientServerTest, ManyOutstandingIsetsAllComplete) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c0");
  constexpr int kN = 200;
  // Stable buffers: iset reads them asynchronously.
  std::vector<std::vector<char>> values;
  values.reserve(kN);
  std::vector<std::unique_ptr<client::Request>> reqs;
  reqs.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    values.push_back(make_value(static_cast<std::uint64_t>(i), 4096));
    reqs.push_back(std::make_unique<client::Request>());
    ASSERT_EQ(client->iset(make_key(static_cast<std::uint64_t>(i)), values.back(),
                           0, 0, *reqs.back()),
              StatusCode::kOk);
  }
  for (auto& req : reqs) {
    client->wait(*req);
    EXPECT_EQ(req->status(), StatusCode::kOk);
  }
  // All stored and correct.
  std::vector<char> out;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(client->get(make_key(static_cast<std::uint64_t>(i)), out),
              StatusCode::kOk);
    EXPECT_EQ(out, values[static_cast<std::size_t>(i)]);
  }
}

TEST_F(ClientServerTest, KeysSpreadAcrossMultiServerCluster) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.num_servers = 4;
  cfg.total_server_memory = 32 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 1024)), StatusCode::kOk);
  }
  // Every server should have received a share of the keys.
  for (std::size_t s = 0; s < bed.num_servers(); ++s) {
    EXPECT_GT(bed.server(s).counters().sets, 10u) << "server " << s;
  }
  // And everything reads back correctly through the ring.
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 200; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
    EXPECT_EQ(out, make_value(i, 1024));
  }
}

TEST_F(ClientServerTest, WorksOverIpoibFabric) {
  TestBed bed(small_bed(Design::kIpoibMem));
  auto client = bed.make_client("c0");
  const auto value = make_value(11, 32 << 10);
  ASSERT_EQ(client->set("ip-key", value), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("ip-key", out), StatusCode::kOk);
  EXPECT_EQ(out, value);
}

TEST_F(ClientServerTest, CompatShimMatchesListing1) {
  TestBed bed(small_bed(Design::kHRdmaOptNonbI));
  auto client = bed.make_client("c0");
  auto st = compat::memcached_wrap(*client);

  const auto value = make_value(12, 2048);
  // Blocking set/get through the shim.
  ASSERT_EQ(compat::memcached_set(&st, "ck", 2, value.data(), value.size(), 0, 3),
            StatusCode::kOk);
  std::size_t len = 0;
  std::uint32_t flags = 0;
  compat::memcached_return error = StatusCode::kServerError;
  char* got = compat::memcached_get(&st, "ck", 2, &len, &flags, &error);
  ASSERT_EQ(error, StatusCode::kOk);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(len, value.size());
  EXPECT_EQ(flags, 3u);
  EXPECT_EQ(std::memcmp(got, value.data(), len), 0);

  // Non-blocking iset + wait.
  compat::memcached_req req;
  ASSERT_EQ(compat::memcached_iset(&st, "ck2", 3, value.data(), value.size(), 0,
                                   1, &req),
            StatusCode::kOk);
  compat::memcached_wait(&st, &req);
  EXPECT_EQ(compat::memcached_req_status(&req), StatusCode::kOk);

  // Non-blocking bget + test-poll.
  compat::memcached_req get_req;
  std::size_t glen = 0;
  std::uint32_t gflags = 0;
  char* dest = compat::memcached_bget(&st, "ck2", 3, &glen, &gflags, &get_req,
                                      &error);
  ASSERT_EQ(error, StatusCode::kOk);
  ASSERT_NE(dest, nullptr);
  int polls = 0;
  while (compat::memcached_req_status(&get_req) == StatusCode::kInProgress) {
    compat::memcached_test(&st, &get_req);
    sim::advance(sim::us(50));
    ASSERT_LT(++polls, 100000);
  }
  // The status can flip between a test call and the loop condition; one
  // final test publishes the out-parameters.
  compat::memcached_test(&st, &get_req);
  EXPECT_EQ(compat::memcached_req_status(&get_req), StatusCode::kOk);
  EXPECT_EQ(glen, value.size());
  EXPECT_EQ(gflags, 1u);
  EXPECT_EQ(std::memcmp(dest, value.data(), glen), 0);

  // memcached_delete.
  EXPECT_EQ(compat::memcached_delete(&st, "ck2", 3, 0), StatusCode::kOk);
}

TEST_F(ClientServerTest, HybridDesignSurvivesOverflowEndToEnd) {
  TestBedConfig cfg = small_bed(Design::kHRdmaDef);
  cfg.total_server_memory = 4 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");
  constexpr std::uint64_t kCount = 300;  // ~9MB of 30KB values into 4MB RAM
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 30 << 10)), StatusCode::kOk);
  }
  EXPECT_GT(bed.store_stats().flushes, 0u);
  std::vector<char> out;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk) << i;
    ASSERT_EQ(out, make_value(i, 30 << 10)) << i;
  }
  EXPECT_EQ(bed.store_stats().checksum_failures, 0u);
}

}  // namespace
}  // namespace hykv
