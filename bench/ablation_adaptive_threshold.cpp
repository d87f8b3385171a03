// Ablation: the adaptive slab manager's mmap/cached switch-over threshold
// (DESIGN.md Section 5). Sweeps the threshold on a mixed-size hybrid
// workload and reports how latency moves -- validating the 64 KB default
// implied by Fig. 4's crossover.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Ablation: adaptive I/O threshold sweep");

  std::printf("  value=8K and value=256K workloads, hybrid Opt-Block, 1.5x data\n\n");
  std::printf("  %12s %16s %16s\n", "threshold", "8K avg us/op", "256K avg us/op");
  for (const std::size_t threshold :
       {std::size_t{0}, std::size_t{4} << 10, std::size_t{16} << 10,
        std::size_t{64} << 10, std::size_t{256} << 10, std::size_t{1} << 20}) {
    double lat[2] = {0, 0};
    int i = 0;
    for (const std::size_t value_bytes :
         {std::size_t{8} << 10, std::size_t{256} << 10}) {
      Scenario s;
      s.bed.design = core::Design::kHRdmaOptBlock;
      s.data_ratio = 1.5;
      s.value_bytes = value_bytes;
      s.bed.server.manager.adaptive_threshold = threshold;
      s.operations = 800;
      const Outcome outcome = run_scenario(s);
      lat[i++] = outcome.result.avg_latency_us();
    }
    std::printf("  %11zuK %16.1f %16.1f\n", threshold >> 10, lat[0], lat[1]);
  }
  std::printf(
      "\n(threshold 0 = always cached; 1M = always mmap; the default 64K "
      "should be at or near the best of both columns)\n");
  return 0;
}
