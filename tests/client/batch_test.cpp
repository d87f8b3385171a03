// Doorbell batching (DESIGN.md §12): TX coalescing, server-side vectorized
// execution, RX demultiplexing, the batch_max_ops=1 byte-for-byte guarantee,
// and the typed stats / mget_status API additions that ride on the same PR.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/profiles.hpp"
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

class BatchTest : public ::testing::Test {
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

// ---------------------------------------------------------------------------
// The acceptance guarantee: batch_max_ops = 1 (the default) is byte-for-byte
// the pre-batching wire protocol. A fake server captures the exact frames.

TEST_F(BatchTest, BatchingOffIsByteForBytePreBatchingWire) {
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto fake_server = fabric.create_endpoint("fake-server");

  std::atomic<bool> saw_batch_opcode{false};
  std::vector<std::pair<std::uint16_t, std::vector<char>>> captured;
  std::mutex captured_mu;
  std::thread echo([&] {
    while (true) {
      auto msg = fake_server->recv();
      if (!msg.ok()) break;
      if (msg.value().opcode == server::kOpBatch) saw_batch_opcode.store(true);
      {
        const std::lock_guard<std::mutex> lock(captured_mu);
        captured.emplace_back(msg.value().opcode, msg.value().payload);
      }
      fake_server->send(msg.value().src, server::kOpResponse,
                        msg.value().wr_id,
                        server::encode_response(StatusCode::kOk, 0));
    }
  });

  {
    client::ClientConfig ccfg;
    ccfg.servers = {fake_server->id()};
    ASSERT_EQ(ccfg.batch_max_ops, 1u) << "batching must default off";
    auto client = std::make_unique<client::Client>(fabric, ccfg);

    const std::string value = "payload-bytes";
    ASSERT_EQ(client->set("a-key", {value.data(), value.size()}, 7, 60),
              StatusCode::kOk);
    std::vector<char> out;
    (void)client->get("a-key", out);  // fake server replies valueless kOk

    EXPECT_FALSE(saw_batch_opcode.load());
    const std::lock_guard<std::mutex> lock(captured_mu);
    ASSERT_EQ(captured.size(), 2u);
    const auto expected_set = server::encode_request(
        {.key = "a-key",
         .value = {value.data(), value.size()},
         .flags = 7,
         .expiration = 60});
    EXPECT_EQ(captured[0].first, server::kOpSet);
    ASSERT_EQ(captured[0].second.size(), expected_set.size());
    EXPECT_EQ(std::memcmp(captured[0].second.data(), expected_set.data(),
                          expected_set.size()),
              0);
    const auto expected_get = server::encode_request({.key = "a-key"});
    EXPECT_EQ(captured[1].first, server::kOpGet);
    ASSERT_EQ(captured[1].second.size(), expected_get.size());
    EXPECT_EQ(std::memcmp(captured[1].second.data(), expected_get.data(),
                          expected_get.size()),
              0);

    const auto counters = client->counters();
    EXPECT_EQ(counters.batches_sent, 0u);
    EXPECT_EQ(counters.batched_ops, 0u);
    EXPECT_EQ(counters.batch_fill(), 0.0);
  }
  fake_server->close();
  echo.join();
}

// ---------------------------------------------------------------------------
// Server-side vectorized execution, driven deterministically by a hand-built
// kOpBatch frame against a real TestBed server.

TEST_F(BatchTest, ServerExecutesBatchFrameAndRepliesBatched) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto raw = bed.fabric().create_endpoint("raw-client");

  const auto value = make_value(1, 512);
  const auto set_body = server::encode_request(
      {.key = "batched-key", .value = value, .flags = 9, .expiration = 0});
  const auto get_body = server::encode_request({.key = "batched-key"});
  const auto miss_body = server::encode_request({.key = "no-such-key"});
  const server::BatchItem items[] = {
      {.opcode = server::kOpSet, .wr_id = 101, .payload = set_body},
      {.opcode = server::kOpGet, .wr_id = 102, .payload = get_body},
      {.opcode = server::kOpGet, .wr_id = 103, .payload = miss_body},
  };
  raw->send(bed.server(0).endpoint_id(), server::kOpBatch, 101,
            server::encode_batch(items));

  auto reply = raw->recv();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().opcode, server::kOpBatchResponse);
  EXPECT_EQ(reply.value().wr_id, 101u);  // correlates to the first sub-op
  const auto resps = server::decode_batch_response(reply.value().payload);
  ASSERT_TRUE(resps.has_value());
  ASSERT_EQ(resps->size(), 3u);

  EXPECT_EQ((*resps)[0].wr_id, 101u);
  const auto set_resp = server::decode_response((*resps)[0].payload);
  ASSERT_TRUE(set_resp.has_value());
  EXPECT_EQ(set_resp->status, StatusCode::kOk);

  EXPECT_EQ((*resps)[1].wr_id, 102u);
  const auto get_resp = server::decode_response((*resps)[1].payload);
  ASSERT_TRUE(get_resp.has_value());
  EXPECT_EQ(get_resp->status, StatusCode::kOk);
  EXPECT_EQ(get_resp->flags, 9u);
  ASSERT_EQ(get_resp->value.size(), value.size());
  EXPECT_EQ(std::memcmp(get_resp->value.data(), value.data(), value.size()), 0);

  EXPECT_EQ((*resps)[2].wr_id, 103u);
  const auto miss_resp = server::decode_response((*resps)[2].payload);
  ASSERT_TRUE(miss_resp.has_value());
  EXPECT_EQ(miss_resp->status, StatusCode::kNotFound);

  // Admission-exact accounting: 3 sub-ops = 3 requests, invariant holds,
  // frame counters describe how they arrived.
  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.requests, 3u);
  EXPECT_EQ(counters.requests, counters.ops_sum());
  EXPECT_EQ(counters.sets, 1u);
  EXPECT_EQ(counters.gets, 2u);
  EXPECT_EQ(counters.batches, 1u);
  EXPECT_EQ(counters.batched_ops, 3u);
  raw->close();
}

TEST_F(BatchTest, MalformedBatchFramesAnswerInvalidArgumentNotCrash) {
  TestBed bed(small_bed(Design::kRdmaMem));
  auto raw = bed.fabric().create_endpoint("raw-client");
  const auto server_id = bed.server(0).endpoint_id();

  // Zero-op frame, truncated frame, and pure garbage: each must come back as
  // a single plain kInvalidArgument correlated to the frame wr_id.
  const std::vector<char> zero_ops(4, 0);
  const server::BatchItem one_get[] = {
      {.opcode = server::kOpGet, .wr_id = 7, .payload = {}}};
  std::vector<char> truncated = server::encode_batch(one_get);
  truncated.resize(truncated.size() - 1);
  const std::vector<char> garbage = {'\x41', '\x42', '\x43'};

  std::uint64_t wr = 900;
  for (const auto& frame : {zero_ops, truncated, garbage}) {
    raw->send(server_id, server::kOpBatch, ++wr, frame);
    auto reply = raw->recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().opcode, server::kOpResponse);
    EXPECT_EQ(reply.value().wr_id, wr);
    const auto resp = server::decode_response(reply.value().payload);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, StatusCode::kInvalidArgument);
  }

  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.requests, 3u);  // one malformed request per bad frame
  EXPECT_EQ(counters.malformed, 3u);
  EXPECT_EQ(counters.requests, counters.ops_sum());
  EXPECT_EQ(counters.batches, 0u);  // only well-formed frames count
  raw->close();
}

// Trace sampling counts ops, not frames: a sampled op inside a batch frame
// gets its own trace, carrying the frame's stage timeline.

TEST_F(BatchTest, SampledOpInsideBatchFrameIsTraced) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.server.trace_sample_shift = 1;  // trace every 2nd op
  TestBed bed(cfg);
  auto raw = bed.fabric().create_endpoint("raw-client");

  const auto value = make_value(2, 128);
  std::vector<std::vector<char>> bodies;
  for (std::uint64_t i = 0; i < 4; ++i) {
    bodies.push_back(
        server::encode_request({.key = make_key(i), .value = value}));
  }
  std::vector<server::BatchItem> items;
  for (std::uint64_t i = 0; i < 4; ++i) {
    items.push_back(
        {.opcode = server::kOpSet, .wr_id = 200 + i, .payload = bodies[i]});
  }
  raw->send(bed.server(0).endpoint_id(), server::kOpBatch, 200,
            server::encode_batch(items));
  auto reply = raw->recv();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().opcode, server::kOpBatchResponse);

  // The four sets are the only ops traced before the stats request.
  auto client = bed.make_client("c0");
  const auto text = client->stats_text(0, client::StatsKind::kTrace);
  ASSERT_TRUE(text.ok());
  const std::string& json = text.value();
  EXPECT_NE(json.find("\"op\":\"set\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"store_phase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"response\""), std::string::npos) << json;
  raw->close();
}

// ---------------------------------------------------------------------------
// End-to-end coalescing: a client with batching on, driven through mget.

TEST_F(BatchTest, MgetCoalescesIntoBatchFramesEndToEnd) {
  // Slow the clock down a little so the TX engine's per-op costs (cold
  // registration of each destination buffer) let the queue build up --
  // that's what opportunistic draining feeds on.
  sim::set_time_scale(0.2);
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.client_batch_max_ops = 8;
  // Deliberately keep the default 1 MiB bounce_slot_bytes: mget's dest
  // buffers are that large, and a Get's dest must NOT count against
  // the batch byte bound (only the key travels in the request frame) -- a
  // regression there silently disables coalescing for every default-config
  // mget.
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr std::uint64_t kCount = 64;
  std::vector<std::string> keys;
  keys.reserve(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    keys.push_back(make_key(i));
    ASSERT_EQ(client->set(keys.back(), make_value(i, 256)), StatusCode::kOk);
  }

  const auto results = client->mget(keys);
  ASSERT_EQ(results.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(results[i].has_value()) << keys[i];
    EXPECT_EQ(*results[i], make_value(i, 256)) << keys[i];
  }

  // The engine must have coalesced at least one run, and every frame it sent
  // must have arrived as a frame server-side with matching op totals.
  const auto cc = client->counters();
  EXPECT_GE(cc.batches_sent, 1u);
  EXPECT_GE(cc.batched_ops, 2u);
  EXPECT_GE(cc.batch_fill(), 2.0);
  const auto sc = bed.server(0).counters();
  EXPECT_EQ(sc.requests, sc.ops_sum());
  EXPECT_EQ(sc.batches, cc.batches_sent);
  EXPECT_EQ(sc.batched_ops, cc.batched_ops);
}

// A blocking op finds the TX engine idle, so the caller posts it on its own
// thread: with batching on it still leaves as a plain frame, never wrapped.

TEST_F(BatchTest, BlockingOpsOnIdleEngineGoOutAsPlainFrames) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.client_batch_max_ops = 8;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");

  constexpr std::uint64_t kCount = 32;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 256)), StatusCode::kOk);
    std::vector<char> out;
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
    EXPECT_EQ(out, make_value(i, 256));
  }

  const auto cc = client->counters();
  EXPECT_EQ(cc.batches_sent, 0u);
  EXPECT_EQ(cc.batched_ops, 0u);
  const auto sc = bed.server(0).counters();
  EXPECT_EQ(sc.batches, 0u);
  EXPECT_EQ(sc.batched_ops, 0u);
  EXPECT_EQ(sc.sets, kCount);
  EXPECT_EQ(sc.gets, kCount);
  EXPECT_EQ(sc.requests, sc.ops_sum());
}

// ---------------------------------------------------------------------------
// mget_status: miss vs failure vs value, and the mget compatibility shape.

TEST_F(BatchTest, MgetStatusDistinguishesMissFromInvalidKey) {
  TestBed bed(small_bed(Design::kHRdmaDef));  // hybrid: no backend fallback
  auto client = bed.make_client("c0");
  ASSERT_EQ(client->set("present", make_value(5, 1024)), StatusCode::kOk);

  const std::vector<std::string> keys = {"present", "absent", ""};
  auto detailed = client->mget_status(keys);
  ASSERT_EQ(detailed.size(), 3u);
  ASSERT_TRUE(detailed[0].ok());
  EXPECT_EQ(detailed[0].value(), make_value(5, 1024));
  EXPECT_EQ(detailed[1].status(), StatusCode::kNotFound);
  EXPECT_EQ(detailed[2].status(), StatusCode::kInvalidArgument);

  // mget flattens every non-kOk outcome to nullopt.
  const auto flat = client->mget(keys);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_TRUE(flat[0].has_value());
  EXPECT_FALSE(flat[1].has_value());
  EXPECT_FALSE(flat[2].has_value());
}

// ---------------------------------------------------------------------------
// Typed stats API: StatsKind selects each of the three stats surfaces, and
// bad indices fail typed.

TEST_F(BatchTest, TypedStatsKindsSelectTheThreeSurfaces) {
  TestBedConfig cfg = small_bed(Design::kRdmaMem);
  cfg.server.trace_sample_shift = 1;
  TestBed bed(cfg);
  auto client = bed.make_client("c0");
  ASSERT_EQ(client->set("sk", make_value(1, 64)), StatusCode::kOk);

  auto counters_text = client->stats_text(0, client::StatsKind::kCounters);
  ASSERT_TRUE(counters_text.ok());
  EXPECT_NE(counters_text.value().find("requests "), std::string::npos);
  EXPECT_NE(counters_text.value().find("batches "), std::string::npos);

  auto latency_text = client->stats_text(0, client::StatsKind::kLatency);
  ASSERT_TRUE(latency_text.ok());
  EXPECT_EQ(latency_text.value().rfind("latency_recording 1", 0), 0u);

  auto trace_text = client->stats_text(0, client::StatsKind::kTrace);
  ASSERT_TRUE(trace_text.ok());
  EXPECT_NE(trace_text.value().find("\"sample_shift\""), std::string::npos);

  EXPECT_EQ(client->stats_text(9, client::StatsKind::kCounters).status(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hykv
