// Figure 7(b): average Set/Get latency across key-value pair sizes for the
// hybrid designs (data does not fit in memory), comparing the default
// direct-I/O blocking design, the adaptive-I/O blocking design, and the two
// non-blocking variants.
//
// Paper shape to reproduce: the proposed optimisations improve performance
// by ~65-89% over the blocking designs across sizes.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 7(b): latency vs key-value size (hybrid, 1.5x data)");

  std::printf("  %8s", "KV size");
  for (const auto design : core::kHybridDesigns) {
    std::printf(" %18s", std::string(to_string(design)).c_str());
  }
  std::printf("   [avg us/op]\n");

  for (const std::size_t size :
       {std::size_t{1} << 10, std::size_t{4} << 10, std::size_t{16} << 10,
        std::size_t{32} << 10, std::size_t{128} << 10}) {
    std::printf("  %7zuK", size >> 10);
    double latencies[4] = {0, 0, 0, 0};
    int column = 0;
    for (const auto design : core::kHybridDesigns) {
      Scenario s;
      s.bed.design = design;
      s.data_ratio = 1.5;
      s.value_bytes = size;
      s.operations = 1000;
      // Shrink memory for small values so key counts stay manageable while
      // preserving the 1.5x overflow ratio.
      if (size <= (std::size_t{4} << 10)) s.bed.total_server_memory = 8 << 20;
      const Outcome outcome = run_scenario(s);
      latencies[column] = outcome.avg_us();
      std::printf(" %18.1f", latencies[column]);
      ++column;
    }
    std::printf("   (NonB-i saves %.0f%% vs Def)\n",
                latencies[0] > 0
                    ? 100.0 * (1.0 - latencies[3] / latencies[0])
                    : 0.0);
  }
  std::printf("\n");
  return 0;
}
