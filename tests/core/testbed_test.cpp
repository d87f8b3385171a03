#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "common/sim_time.hpp"

#include <chrono>
#include <thread>
#include "bench_util.hpp"
#include "core/design.hpp"

namespace hykv::core {
namespace {

TEST(DesignTest, PredicatesMatchTableI) {
  // Table I, row by row.
  EXPECT_FALSE(uses_rdma(Design::kIpoibMem));
  EXPECT_FALSE(is_hybrid(Design::kIpoibMem));
  EXPECT_TRUE(uses_rdma(Design::kRdmaMem));
  EXPECT_FALSE(is_hybrid(Design::kRdmaMem));
  EXPECT_TRUE(uses_rdma(Design::kHRdmaDef));
  EXPECT_TRUE(is_hybrid(Design::kHRdmaDef));
  EXPECT_EQ(io_policy(Design::kHRdmaDef), store::IoPolicy::kDirectAll);
  EXPECT_EQ(io_policy(Design::kHRdmaOptBlock), store::IoPolicy::kAdaptive);
  EXPECT_FALSE(async_server(Design::kHRdmaOptBlock));
  EXPECT_TRUE(async_server(Design::kHRdmaOptNonbB));
  EXPECT_TRUE(async_server(Design::kHRdmaOptNonbI));
  EXPECT_EQ(api_mode(Design::kHRdmaOptNonbB), ApiMode::kNonBlockingB);
  EXPECT_EQ(api_mode(Design::kHRdmaOptNonbI), ApiMode::kNonBlockingI);
  EXPECT_EQ(api_mode(Design::kHRdmaDef), ApiMode::kBlocking);
}

TEST(DesignTest, NamesMatchPaper) {
  EXPECT_EQ(to_string(Design::kIpoibMem), "IPoIB-Mem");
  EXPECT_EQ(to_string(Design::kRdmaMem), "RDMA-Mem");
  EXPECT_EQ(to_string(Design::kHRdmaDef), "H-RDMA-Def");
  EXPECT_EQ(to_string(Design::kHRdmaOptBlock), "H-RDMA-Opt-Block");
  EXPECT_EQ(to_string(Design::kHRdmaOptNonbB), "H-RDMA-Opt-NonB-b");
  EXPECT_EQ(to_string(Design::kHRdmaOptNonbI), "H-RDMA-Opt-NonB-i");
}

TEST(DesignTest, FabricProfileFollowsTransport) {
  EXPECT_EQ(fabric_profile(Design::kRdmaMem).name, "RDMA-FDR56");
  EXPECT_EQ(fabric_profile(Design::kIpoibMem).name, "IPoIB-FDR56");
}

class TestBedAllDesigns : public ::testing::TestWithParam<Design> {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_P(TestBedAllDesigns, SmokeSetGet) {
  TestBedConfig cfg;
  cfg.design = GetParam();
  cfg.total_server_memory = 8 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  TestBed bed(cfg);
  EXPECT_EQ(bed.design(), GetParam());
  EXPECT_EQ(bed.num_servers(), 1u);

  auto client = bed.make_client("smoke");
  const auto value = make_value(1, 4096);
  ASSERT_EQ(client->set("smoke-key", value), StatusCode::kOk);
  std::vector<char> out;
  ASSERT_EQ(client->get("smoke-key", out), StatusCode::kOk);
  EXPECT_EQ(out, value);

  // The server records an op's latency *after* sending the response, so
  // give the last record a moment to land.
  for (int i = 0; i < 200 && bed.server_ops_handled() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(bed.server_ops_handled(), 2u);  // one set + one get handled
  EXPECT_EQ(bed.store_stats().sets, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSix, TestBedAllDesigns,
                         ::testing::ValuesIn(kAllDesigns),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TestBedTest, MultiServerSplitsMemoryAndSsd) {
  sim::ScopedTimeScale scale(0.02);
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaDef;
  cfg.num_servers = 4;
  cfg.total_server_memory = 16 << 20;
  cfg.total_ssd_limit = 64 << 20;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  TestBed bed(cfg);
  EXPECT_EQ(bed.num_servers(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& manager_cfg = bed.server(i).manager().config();
    EXPECT_EQ(manager_cfg.slab.memory_limit, 4u << 20);
    EXPECT_EQ(manager_cfg.ssd_limit, 16u << 20);
  }
}

// A default bed builds the paper's single slab manager per server, not
// ManagerConfig's auto shard count; fields set on the server template reach
// every server, apart from the ones the bed owns.
TEST(TestBedTest, ServerTemplateDefaultsToOneShardAndReachesEveryServer) {
  sim::ScopedTimeScale scale(0.02);
  {
    TestBed bed{TestBedConfig{}};
    auto client = bed.make_client("c");
    const auto stats = client->stats_text(0, client::StatsKind::kCounters);
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats.value().find("\nshards 1\n"), std::string::npos)
        << stats.value();
  }
  TestBedConfig cfg;
  cfg.num_servers = 2;
  cfg.total_server_memory = 16 << 20;
  cfg.server.name = "overridden by the bed";
  cfg.server.trace_sample_shift = 3;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  TestBed bed(cfg);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(bed.server(i).name(), "RDMA-Mem-server-" + std::to_string(i));
    ASSERT_NE(bed.server(i).tracer(), nullptr);
    EXPECT_EQ(bed.server(i).tracer()->sample_shift(), 3u);
    const auto& manager_cfg = bed.server(i).manager().config();
    EXPECT_EQ(manager_cfg.slab.slab_bytes, 256u << 10);
    EXPECT_EQ(manager_cfg.slab.memory_limit, 8u << 20);
  }
}

TEST(TestBedTest, ResetMetricsClearsServerSide) {
  sim::ScopedTimeScale scale(0.02);
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  ASSERT_EQ(client->set("k", make_value(1, 128)), StatusCode::kOk);
  // The worker records the op's latency *after* sending the response (the
  // response span must cover the send), so the client can observe
  // completion a beat before the record lands -- poll briefly.
  for (int i = 0; i < 1000 && bed.server_ops_handled() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GT(bed.server_ops_handled(), 0u);
  bed.reset_metrics();
  EXPECT_EQ(bed.server_ops_handled(), 0u);
  EXPECT_EQ(bed.server(0).counters().requests, 0u);
}

// Fig. 2/6 derive the paper's six stages from span sums (bench_util.hpp):
// server spans per request handled, client spans per wait. A hybrid design
// that overflows RAM must show slab allocation (flushes) and cache
// check+load (SSD reads); an in-memory design that overflows must show the
// backend miss penalty on the client.
TEST(TestBedTest, BenchStageDerivationSeesFlushLoadAndMissPenalty) {
  bench::Scenario s;
  s.data_ratio = 1.5;
  s.bed.total_server_memory = 8 << 20;
  s.value_bytes = 8 << 10;
  s.operations = 200;
  s.pattern = workload::Pattern::kUniform;

  s.bed.design = Design::kHRdmaDef;
  const bench::Outcome def = bench::run_scenario(s);
  EXPECT_GT(def.store.flushes, 0u);
  EXPECT_GT(def.server_us(metrics::Span::kSlabAllocation), 0.0);
  EXPECT_GT(def.server_us(metrics::Span::kCacheCheckLoad), 0.0);

  s.bed.design = Design::kRdmaMem;
  const bench::Outcome mem = bench::run_scenario(s);
  EXPECT_GT(mem.backend_fetches, 0u);
  EXPECT_GT(mem.client_us(metrics::Span::kMissPenalty), 0.0);
}

}  // namespace
}  // namespace hykv::core
