// Figure 1: overall latency of Memcached Set/Get operations for the three
// baseline designs (IPoIB-Mem, RDMA-Mem, H-RDMA-Def), (a) when all data fits
// in memory and (b) when it does not (in-memory designs then pay the < 2 ms
// backend miss penalty; the hybrid design pays SSD I/O instead).
//
// Paper shape to reproduce:
//   (a) RDMA designs beat IPoIB-Mem by ~3-4x; H-RDMA-Def ~= RDMA-Mem.
//   (b) H-RDMA-Def clearly beats the in-memory designs, but is 15-17x worse
//       than its own fits-in-memory latency.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 1: overall Set/Get latency, baseline designs");

  double def_fits = 0.0;
  for (const bool fits : {true, false}) {
    std::printf("(%c) data %s in memory  [Zipf, 32KB values, 50:50 Set/Get]\n",
                fits ? 'a' : 'b', fits ? "fits" : "does NOT fit");
    std::printf("  %-12s %12s %12s %12s %8s %10s\n", "design", "avg us/op",
                "set us/op", "get us/op", "hit%", "backend");
    for (const core::Design design : core::kBaselineDesigns) {
      Scenario s;
      s.bed.design = design;
      s.data_ratio = fits ? 1.0 : 1.5;
      const Outcome outcome = run_scenario(s);
      const auto& r = outcome.result;
      const double hit_pct =
          r.reads == 0 ? 0.0
                       : 100.0 * static_cast<double>(r.hits) /
                             static_cast<double>(r.reads);
      std::printf("  %-12s %12.1f %12.1f %12.1f %7.1f%% %10llu\n",
                  std::string(to_string(design)).c_str(), outcome.avg_us(),
                  outcome.set_us(), outcome.get_us(), hit_pct,
                  static_cast<unsigned long long>(outcome.backend_fetches));
      if (design == core::Design::kHRdmaDef) {
        if (fits) {
          def_fits = outcome.avg_us();
        } else if (def_fits > 0.0) {
          std::printf(
              "  -> H-RDMA-Def degradation fits vs not-fits: %.1fx (paper: "
              "15-17x)\n",
              outcome.avg_us() / def_fits);
        }
      }
    }
    std::printf("\n");
  }
  return 0;
}
