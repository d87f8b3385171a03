// Async-server semantics: the bounded request-buffer pool, backpressure
// under floods, and correctness with multiple processing workers -- the
// "enhanced server" of Section V-B1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/client.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class ServerAsyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(ServerAsyncTest, TinyBufferPoolStillCompletesFloods) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  cfg.server.request_buffer_slots = 2;  // aggressive backpressure
  TestBed bed(cfg);
  auto client = bed.make_client("flood");

  constexpr int kOps = 300;
  std::vector<std::vector<char>> values;
  std::vector<std::unique_ptr<client::Request>> reqs;
  for (int i = 0; i < kOps; ++i) {
    values.push_back(make_value(static_cast<std::uint64_t>(i), 4096));
    reqs.push_back(std::make_unique<client::Request>());
    ASSERT_EQ(client->iset(make_key(static_cast<std::uint64_t>(i)), values.back(),
                           0, 0, *reqs.back()),
              StatusCode::kOk);
  }
  for (auto& req : reqs) {
    client->wait(*req);
    ASSERT_EQ(req->status(), StatusCode::kOk);
  }
  EXPECT_EQ(bed.store_stats().sets, static_cast<std::uint64_t>(kOps));
  // Nothing dropped under backpressure.
  std::vector<char> out;
  for (int i = 0; i < kOps; i += 17) {
    ASSERT_EQ(client->get(make_key(static_cast<std::uint64_t>(i)), out),
              StatusCode::kOk);
    EXPECT_EQ(out, values[static_cast<std::size_t>(i)]);
  }
}

TEST_F(ServerAsyncTest, MultipleWorkersPreserveCorrectness) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbB;
  cfg.total_server_memory = 4 << 20;  // forces SSD traffic too
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  cfg.server.processing_threads = 3;
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  constexpr std::uint64_t kKeys = 150;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    client::Request req;
    ASSERT_EQ(client->bset(make_key(i), make_value(i, 20 << 10), 0, 0, req),
              StatusCode::kOk);
    client->wait(req);
    ASSERT_EQ(req.status(), StatusCode::kOk);
  }
  std::vector<char> out;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk) << i;
    ASSERT_EQ(out, make_value(i, 20 << 10)) << i;
  }
  EXPECT_EQ(bed.store_stats().checksum_failures, 0u);
}

TEST_F(ServerAsyncTest, StopWhileFloodedShutsDownCleanly) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  cfg.server.request_buffer_slots = 4;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  std::vector<std::vector<char>> values;
  std::vector<std::unique_ptr<client::Request>> reqs;
  for (int i = 0; i < 100; ++i) {
    values.push_back(make_value(static_cast<std::uint64_t>(i), 8192));
    reqs.push_back(std::make_unique<client::Request>());
    ASSERT_EQ(client->iset(make_key(static_cast<std::uint64_t>(i)), values.back(),
                           0, 0, *reqs.back()),
              StatusCode::kOk);
  }
  bed.server(0).stop();  // mid-flood shutdown must not hang or crash
  // Outstanding requests either completed before the stop or are cancelled
  // by us; nothing may deadlock.
  for (auto& req : reqs) {
    (void)client->wait_for(*req, sim::ms(100));
    EXPECT_TRUE(req->done());
  }
}

}  // namespace
}  // namespace hykv
