// YCSB-style core workloads (A: update-heavy, B: read-mostly, C: read-only,
// R: read-dominant 99:1, U: uniform 50:50) across the key designs -- the
// cloud-workload framing the paper's Section VI-A cites. C and R are the
// GET-heavy mixes the non-blocking read path targets. Hybrid setup: 1.5x
// data:RAM, 32 KB values.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("YCSB core workloads across designs (1.5x data:RAM)");

  const core::Design designs[] = {
      core::Design::kRdmaMem,
      core::Design::kHRdmaDef,
      core::Design::kHRdmaOptBlock,
      core::Design::kHRdmaOptNonbI,
  };

  std::printf("  %-8s", "workload");
  for (const auto design : designs) {
    std::printf(" %18s", std::string(to_string(design)).c_str());
  }
  std::printf("   [avg us/op]\n");

  struct Preset {
    char id;
    const char* label;
  };
  for (const Preset preset : {Preset{'A', "A 50:50"}, Preset{'B', "B 95:5"},
                              Preset{'C', "C reads"}, Preset{'R', "R 99:1"},
                              Preset{'U', "U unif"}}) {
    std::printf("  %-8s", preset.label);
    for (const auto design : designs) {
      Scenario s;
      s.bed.design = design;
      s.data_ratio = 1.5;
      s.operations = 800;
      const auto base = workload::ycsb_preset(preset.id, 0, 0, 0);
      s.read_fraction = base.read_fraction;
      s.pattern = base.pattern;
      const Outcome outcome = run_scenario(s);
      std::printf(" %18.1f", outcome.avg_us());
    }
    std::printf("\n");
  }
  std::printf("\n(hybrid + non-blocking should track RDMA-Mem within a small\n"
              " factor on every mix while H-RDMA-Def pays SSD swap costs)\n");
  return 0;
}
