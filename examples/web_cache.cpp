// Online-data-processing example: a web-scale query cache in front of a slow
// database (the paper's Section I motivation). Demonstrates the cache-aside
// pattern with the in-memory design -- and why hybrid retention matters when
// the working set outgrows RAM.
//
//   ./web_cache
#include <cstdio>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "workload/workload.hpp"

namespace {

void serve_queries(hykv::core::Design design, const char* label) {
  using namespace hykv;

  workload::WorkloadConfig wl;
  wl.key_count = 400;          // working set: 400 "query results"
  wl.value_bytes = 16 << 10;   // 16 KB result pages
  wl.read_fraction = 0.9;      // read-heavy online workload
  wl.pattern = workload::Pattern::kZipf;
  wl.operations = 800;
  wl.verify_values = true;

  core::TestBedConfig config;
  config.design = design;
  // RAM holds only ~half of the working set -> in-memory designs miss.
  config.total_server_memory = 4 << 20;
  config.backend_resolver = workload::dataset_resolver(wl.key_count, wl.value_bytes);
  core::TestBed bed(config);

  auto client = bed.make_client("frontend");
  {
    sim::ScopedTimeScale preload_scale(0.0);  // instant warm-up
    workload::preload(*client, wl);
  }

  const auto result = workload::run(*client, wl);
  // Miss penalty per op: backend-fetch time over the client's waits.
  const double miss_penalty_us = metrics::per_op_us(
      client->span_latency(metrics::Span::kMissPenalty).sum_ns(),
      client->span_latency(metrics::Span::kClientWait).count());
  std::printf(
      "  %-18s avg %8.1f us/op   throughput %7.2f kops/s   backend trips %5llu"
      "   miss-penalty %6.1f us/op\n",
      label, result.avg_latency_us(), result.throughput_kops(),
      static_cast<unsigned long long>(bed.backend().fetches()),
      miss_penalty_us);
  if (result.verify_failures != 0) {
    std::printf("  !! %llu corrupted results\n",
                static_cast<unsigned long long>(result.verify_failures));
  }
}

}  // namespace

int main() {
  using namespace hykv;
  sim::init_precise_timing();

  std::printf("web query cache, working set 2x of cache RAM, Zipf reads:\n");
  serve_queries(core::Design::kIpoibMem, "IPoIB-Mem");
  serve_queries(core::Design::kRdmaMem, "RDMA-Mem");
  serve_queries(core::Design::kHRdmaDef, "H-RDMA-Def");
  serve_queries(core::Design::kHRdmaOptBlock, "H-RDMA-Opt-Block");
  std::printf(
      "note: hybrid designs avoid the ~2ms database trips entirely by\n"
      "      retaining the overflow on SSD.\n");
  return 0;
}
