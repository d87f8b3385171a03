// Figure 7(c): aggregated server throughput (ops/sec) with many concurrent
// clients issuing Zipf-distributed Set/Get requests against a 4-server
// hybrid cluster (paper: 100 clients on 32 nodes, 1 GB aggregated RAM, 4 GB
// SSD cap, 2 GB of 8 KB pairs; here 1/16-scaled with thread clients).
//
// Paper shape to reproduce: NonB-b/i achieve 2-2.5x the blocking designs'
// throughput; adaptive I/O alone (Opt-Block) gives ~1.3x over Def-Block.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 7(c): aggregated throughput, 4-server hybrid cluster");

  constexpr unsigned kClients = 8;
  std::printf("  clients=%u, servers=4, 8KB values, 2x data:RAM, Zipf 50:50\n\n",
              kClients);
  std::printf("  %-18s %14s %12s\n", "design", "kops/s", "vs Def");
  double def_kops = 0.0;
  for (const auto design : core::kHybridDesigns) {
    Scenario s;
    s.bed.design = design;
    s.bed.num_servers = 4;
    s.clients = kClients;
    s.value_bytes = 8 << 10;
    s.data_ratio = 2.0;
    s.bed.total_server_memory = kScaledServerMemory;  // paper: 1 GB aggregated
    s.bed.total_ssd_limit = kScaledServerMemory * 4;  // paper: 4 GB SSD cap
    s.operations = 300;                               // per client
    // Shallow windows + coarse polls: with this many client threads on few
    // cores, deep windows turn into scheduler churn, not pipelining.
    s.window = 16;
    s.poll_compute = sim::us(20);
    const Outcome outcome = run_scenario(s);
    const double kops = outcome.kops();
    if (design == core::Design::kHRdmaDef) def_kops = kops;
    std::printf("  %-18s %14.2f %11.2fx\n",
                std::string(to_string(design)).c_str(), kops,
                def_kops > 0 ? kops / def_kops : 0.0);
  }
  std::printf(
      "\n(paper: NonB 2-2.5x over blocking designs; adaptive I/O ~1.3x over "
      "direct I/O)\n");
  return 0;
}
