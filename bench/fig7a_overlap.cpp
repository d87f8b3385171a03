// Figure 7(a): percentage of job runtime available for application-level
// overlap, for the blocking API vs the two non-blocking API families, under
// read-only (100% Get) and write-heavy (50:50) Zipf workloads on the hybrid
// design (1 GB RAM : 1.5 GB data, scaled).
//
// Paper shape to reproduce: NonB-i ~92% for both mixes; NonB-b ~89% for
// read-only but < 12% for write-heavy (bset must block for buffer-reuse
// guarantees); blocking APIs offer ~0%.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 7(a): overlap%% by API and workload mix");

  struct ApiRow {
    const char* label;
    core::Design design;
  };
  const ApiRow rows[] = {
      {"RDMA-Block", core::Design::kHRdmaOptBlock},
      {"RDMA-NonB-b", core::Design::kHRdmaOptNonbB},
      {"RDMA-NonB-i", core::Design::kHRdmaOptNonbI},
  };

  std::printf("  %-14s %16s %16s\n", "API", "read-only", "write-heavy(50:50)");
  for (const auto& row : rows) {
    double overlap[2] = {0, 0};
    int i = 0;
    for (const double read_fraction : {1.0, 0.5}) {
      Scenario s;
      s.bed.design = row.design;
      s.data_ratio = 1.5;
      s.read_fraction = read_fraction;
      s.operations = 1500;
      const Outcome outcome = run_scenario(s);
      overlap[i++] = outcome.overlap_pct();
    }
    std::printf("  %-14s %15.1f%% %15.1f%%\n", row.label, overlap[0], overlap[1]);
  }
  std::printf(
      "\n(paper: NonB-i ~92%% both, NonB-b ~89%% read-only / <12%% "
      "write-heavy, blocking ~0%%)\n");
  return 0;
}
