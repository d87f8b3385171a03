// google-benchmark micro suite over the substrates: slab allocator, hash
// map, item formatting, Zipf generation, histogram recording, protocol
// codecs and fabric round trips. These run with the time scale at 0 so they
// measure *code* cost, not modelled device time (the fig benches measure
// modelled time).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/histogram.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "net/fabric.hpp"
#include "server/protocol.hpp"
#include "store/hash_map.hpp"
#include "store/hybrid_manager.hpp"
#include "store/item.hpp"
#include "store/slab.hpp"

namespace {

using namespace hykv;

void BM_SlabAllocateFree(benchmark::State& state) {
  store::SlabAllocator::Config cfg;
  cfg.memory_limit = 64 << 20;
  store::SlabAllocator alloc(cfg);
  const unsigned cls = alloc.class_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    char* chunk = alloc.allocate(cls);
    benchmark::DoNotOptimize(chunk);
    alloc.deallocate(chunk, cls);
  }
}
BENCHMARK(BM_SlabAllocateFree)->Arg(128)->Arg(4096)->Arg(32768);

void BM_HashMapUpsertFind(benchmark::State& state) {
  store::HashMap<int> map;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) map.upsert(make_key(i), 1);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(make_key(rng.next_below(n))));
  }
}
BENCHMARK(BM_HashMapUpsertFind)->Arg(1000)->Arg(100000);

void BM_ItemFormat(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<char> chunk(store::item_total_size(20, size));
  const auto value = make_value(1, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store::format_item(chunk.data(), "key-0000000000000001", value, 0, 0, 1));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ItemFormat)->Arg(1024)->Arg(32768);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.99, 3);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next());
}
BENCHMARK(BM_ZipfNext)->Arg(1000)->Arg(1000000);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(5);
  for (auto _ : state) hist.record_ns(rng.next_below(10'000'000));
  benchmark::DoNotOptimize(hist.percentile_ns(99));
}
BENCHMARK(BM_HistogramRecord);

/// Encode + decode of one request: a GET (arg 0) or a SET of that many
/// value bytes.
void BM_ProtocolSetCodec(benchmark::State& state) {
  const auto value = make_value(2, static_cast<std::size_t>(state.range(0)));
  const std::uint16_t opcode = value.empty() ? server::kOpGet : server::kOpSet;
  for (auto _ : state) {
    const auto wire = server::encode_request(
        {.key = "key-0000000000000001", .value = value, .flags = 1});
    benchmark::DoNotOptimize(server::decode_request(opcode, wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProtocolSetCodec)->Arg(0)->Arg(1024)->Arg(32768);

void BM_FabricSendRecv(benchmark::State& state) {
  sim::set_time_scale(0.0);  // code cost only
  net::Fabric fabric(FabricProfile::fdr_rdma());
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  const auto payload = make_value(3, static_cast<std::size_t>(state.range(0)));
  std::uint64_t wr = 0;
  for (auto _ : state) {
    a->send(b->id(), 1, ++wr, payload);
    benchmark::DoNotOptimize(b->recv());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  sim::set_time_scale(1.0);
}
BENCHMARK(BM_FabricSendRecv)->Arg(128)->Arg(32768);

void BM_ManagerSetGetInMemory(benchmark::State& state) {
  sim::set_time_scale(0.0);
  store::ManagerConfig cfg;
  cfg.mode = store::StorageMode::kInMemory;
  cfg.slab.memory_limit = 256 << 20;
  store::HybridSlabManager manager(cfg, nullptr);
  const auto value = make_value(4, static_cast<std::size_t>(state.range(0)));
  std::vector<char> out;
  std::uint32_t flags;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto key = make_key(i++ % 1000);
    manager.store(key, value, 0, 0);
    benchmark::DoNotOptimize(manager.get(key, out, flags));
  }
  sim::set_time_scale(1.0);
}
BENCHMARK(BM_ManagerSetGetInMemory)->Arg(1024)->Arg(32768);

}  // namespace

int main(int argc, char** argv) {
  hykv::sim::init_precise_timing();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
