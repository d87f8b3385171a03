#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include "common/sim_time.hpp"

namespace hykv::workload {
namespace {

using core::ApiMode;
using core::Design;
using core::TestBed;
using core::TestBedConfig;

TestBedConfig bed_config(Design design, std::size_t memory = 8 << 20) {
  TestBedConfig cfg;
  cfg.design = design;
  cfg.total_server_memory = memory;
  cfg.server.manager.slab.slab_bytes = 256 << 10;
  return cfg;
}

WorkloadConfig small_workload(ApiMode api) {
  WorkloadConfig cfg;
  cfg.key_count = 150;
  cfg.value_bytes = 16 << 10;
  cfg.operations = 300;
  cfg.read_fraction = 0.5;
  cfg.api = api;
  cfg.verify_values = true;
  return cfg;
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(WorkloadTest, DatasetHelpersAreConsistent) {
  const auto v1 = dataset_value(42, 1000);
  const auto v2 = dataset_value(42, 1000);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1.size(), 1000u);

  auto resolver = dataset_resolver(100, 1000);
  const auto hit = resolver(make_key(42));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, v1);
  EXPECT_FALSE(resolver(make_key(100)).has_value());  // out of range
  EXPECT_FALSE(resolver("garbage").has_value());
  EXPECT_FALSE(resolver("key-notahexnumber!!").has_value());
}

TEST_F(WorkloadTest, PreloadMakesDataResident) {
  TestBed bed(bed_config(Design::kRdmaMem));
  auto client = bed.make_client("c");
  WorkloadConfig cfg = small_workload(ApiMode::kBlocking);
  preload(*client, cfg);
  EXPECT_EQ(bed.store_stats().sets, cfg.key_count);
}

class WorkloadApiSweep : public WorkloadTest,
                         public ::testing::WithParamInterface<ApiMode> {};

TEST_P(WorkloadApiSweep, MixedWorkloadCompletesCleanly) {
  const Design design = GetParam() == ApiMode::kBlocking
                            ? Design::kHRdmaOptBlock
                            : (GetParam() == ApiMode::kNonBlockingB
                                   ? Design::kHRdmaOptNonbB
                                   : Design::kHRdmaOptNonbI);
  TestBed bed(bed_config(design, 2 << 20));  // small RAM: force SSD traffic
  auto client = bed.make_client("c");
  WorkloadConfig cfg = small_workload(GetParam());
  {
    sim::ScopedTimeScale preload_scale(0.0);
    preload(*client, cfg);
  }
  const auto result = run(*client, cfg);
  EXPECT_EQ(result.operations, cfg.operations);
  EXPECT_EQ(result.reads + result.writes, cfg.operations);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.verify_failures, 0u);
  EXPECT_EQ(result.misses, 0u);  // hybrid retains everything
  EXPECT_GT(result.hits, 0u);
  EXPECT_GT(result.total_time.count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Apis, WorkloadApiSweep,
                         ::testing::Values(ApiMode::kBlocking,
                                           ApiMode::kNonBlockingB,
                                           ApiMode::kNonBlockingI),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case ApiMode::kBlocking: return "Blocking";
                             case ApiMode::kNonBlockingB: return "NonBlockingB";
                             default: return "NonBlockingI";
                           }
                         });

TEST_F(WorkloadTest, InMemoryDesignServesMissesFromBackend) {
  TestBedConfig bcfg = bed_config(Design::kRdmaMem, 2 << 20);  // tiny RAM
  WorkloadConfig cfg = small_workload(ApiMode::kBlocking);
  bcfg.backend_resolver = dataset_resolver(cfg.key_count, cfg.value_bytes);
  TestBed bed(bcfg);
  auto client = bed.make_client("c");
  {
    sim::ScopedTimeScale preload_scale(0.0);
    preload(*client, cfg);  // overflows 2MB: LRU drops occur
  }
  ASSERT_GT(bed.store_stats().dropped_evictions, 0u);
  const auto result = run(*client, cfg);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.verify_failures, 0u);
  // Misses were served by the backend, transparently, so read results are
  // all hits from the workload's point of view.
  EXPECT_GT(bed.backend().fetches(), 0u);
  EXPECT_EQ(result.misses, 0u);
}

TEST_F(WorkloadTest, NonBlockingOverlapExceedsBlocking) {
  // The core claim of Fig. 7(a), at test scale.
  auto overlap_for = [&](Design design, ApiMode api, double read_fraction) {
    TestBed bed(bed_config(design, 2 << 20));
    auto client = bed.make_client("c");
    WorkloadConfig cfg = small_workload(api);
    cfg.read_fraction = read_fraction;
    cfg.operations = 200;
    {
      sim::ScopedTimeScale preload_scale(0.0);
      preload(*client, cfg);
    }
    return run(*client, cfg).overlap_fraction();
  };
  const double blocking = overlap_for(Design::kHRdmaOptBlock, ApiMode::kBlocking, 1.0);
  const double nonb_i = overlap_for(Design::kHRdmaOptNonbI, ApiMode::kNonBlockingI, 1.0);
  EXPECT_LT(blocking, 0.2);
  EXPECT_GT(nonb_i, 0.5);
  EXPECT_GT(nonb_i, blocking);
}

TEST_F(WorkloadTest, MultiClientThroughputAggregates) {
  TestBedConfig bcfg = bed_config(Design::kHRdmaOptNonbI, 8 << 20);
  bcfg.num_servers = 2;
  TestBed bed(bcfg);
  WorkloadConfig cfg = small_workload(ApiMode::kNonBlockingI);
  cfg.operations = 100;
  {
    auto loader = bed.make_client("loader");
    sim::ScopedTimeScale preload_scale(0.0);
    preload(*loader, cfg);
  }
  const auto result = run_multi(bed, 3, cfg);
  EXPECT_EQ(result.operations, 300u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.verify_failures, 0u);
  EXPECT_GT(result.throughput_kops(), 0.0);
}

TEST_F(WorkloadTest, BlockIoRoundTripsAllApis) {
  for (const ApiMode api :
       {ApiMode::kBlocking, ApiMode::kNonBlockingB, ApiMode::kNonBlockingI}) {
    TestBed bed(bed_config(api == ApiMode::kBlocking ? Design::kHRdmaOptBlock
                                                     : Design::kHRdmaOptNonbI,
                           2 << 20));
    auto client = bed.make_client("c");
    BlockIoConfig cfg;
    cfg.block_bytes = 512 << 10;
    cfg.chunk_bytes = 64 << 10;
    cfg.total_bytes = 4 << 20;  // 8 blocks
    cfg.api = api;
    const auto result = run_block_io(*client, cfg);
    EXPECT_EQ(result.blocks, 8u);
    EXPECT_EQ(result.errors, 0u) << static_cast<int>(api);
    EXPECT_EQ(result.verify_failures, 0u) << static_cast<int>(api);
    EXPECT_EQ(result.write_block_latency.count(), 8u);
    EXPECT_EQ(result.read_block_latency.count(), 8u);
  }
}

TEST_F(WorkloadTest, YcsbPresetsMatchDefinitions) {
  const auto a = ycsb_preset('A', 100, 1024, 500);
  EXPECT_DOUBLE_EQ(a.read_fraction, 0.5);
  EXPECT_EQ(a.pattern, Pattern::kZipf);
  EXPECT_EQ(a.key_count, 100u);
  EXPECT_EQ(a.value_bytes, 1024u);
  EXPECT_EQ(a.operations, 500u);
  EXPECT_DOUBLE_EQ(ycsb_preset('B', 1, 1, 1).read_fraction, 0.95);
  EXPECT_DOUBLE_EQ(ycsb_preset('C', 1, 1, 1).read_fraction, 1.0);
  const auto r = ycsb_preset('R', 1, 1, 1);
  EXPECT_DOUBLE_EQ(r.read_fraction, 0.99);
  EXPECT_EQ(r.pattern, Pattern::kZipf);
  const auto u = ycsb_preset('U', 1, 1, 1);
  EXPECT_EQ(u.pattern, Pattern::kUniform);
  EXPECT_DOUBLE_EQ(u.read_fraction, 0.5);
}

TEST_F(WorkloadTest, UniformPatternCoversKeySpaceEvenly) {
  TestBed bed(bed_config(Design::kRdmaMem));
  auto client = bed.make_client("c");
  WorkloadConfig cfg = small_workload(ApiMode::kBlocking);
  cfg.pattern = Pattern::kUniform;
  cfg.operations = 400;
  {
    sim::ScopedTimeScale preload_scale(0.0);
    preload(*client, cfg);
  }
  const auto result = run(*client, cfg);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.verify_failures, 0u);
}

TEST_F(WorkloadTest, ResultMergeAggregates) {
  WorkloadResult a, b;
  a.operations = 10;
  a.hits = 5;
  a.total_time = sim::ms(10);
  a.blocked_time = sim::ms(1);
  b.operations = 20;
  b.misses = 3;
  b.total_time = sim::ms(20);
  b.blocked_time = sim::ms(2);
  a.merge(b);
  EXPECT_EQ(a.operations, 30u);
  EXPECT_EQ(a.hits, 5u);
  EXPECT_EQ(a.misses, 3u);
  EXPECT_EQ(a.total_time, sim::ms(20));  // max
  EXPECT_EQ(a.blocked_time, sim::ms(3));
}

}  // namespace
}  // namespace hykv::workload
