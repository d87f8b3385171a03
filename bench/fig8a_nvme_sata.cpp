// Figure 8(a): hybrid-design latency on SATA vs NVMe SSDs for read-only and
// write-heavy workloads (single client, 1 GB RAM : 1.5 GB data, scaled).
//
// Paper shape to reproduce: Opt-Block improves 54-83% over Def-Block;
// NonB-b/i improve a further 48-80%; absolute gains are larger on SATA than
// NVMe because the hidden SSD latency is larger.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 8(a): SATA vs NVMe, read-only and write-heavy");

  for (const auto& ssd : {SsdProfile::sata(), SsdProfile::nvme()}) {
    std::printf("%s   [avg us/op]\n", ssd.name.c_str());
    std::printf("  %-18s %14s %18s\n", "design", "read-only", "write-heavy(50:50)");
    double def_latency[2] = {0, 0};
    for (const auto design : core::kHybridDesigns) {
      double lat[2] = {0, 0};
      int i = 0;
      for (const double read_fraction : {1.0, 0.5}) {
        Scenario s;
        s.bed.design = design;
        s.data_ratio = 1.5;
        s.bed.ssd = ssd;
        s.read_fraction = read_fraction;
        const Outcome outcome = run_scenario(s);
        lat[i++] = outcome.avg_us();
      }
      if (design == core::Design::kHRdmaDef) {
        def_latency[0] = lat[0];
        def_latency[1] = lat[1];
        std::printf("  %-18s %14.1f %18.1f\n",
                    std::string(to_string(design)).c_str(), lat[0], lat[1]);
      } else {
        std::printf("  %-18s %14.1f %18.1f   (%.0f%% / %.0f%% vs Def)\n",
                    std::string(to_string(design)).c_str(), lat[0], lat[1],
                    100.0 * (1.0 - lat[0] / def_latency[0]),
                    100.0 * (1.0 - lat[1] / def_latency[1]));
      }
    }
    std::printf("\n");
  }
  std::printf(
      "(paper: Opt-Block 54-83%% over Def; NonB 48-80%% further; bigger wins "
      "on SATA)\n");
  return 0;
}
