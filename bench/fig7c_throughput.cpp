// Figure 7(c): aggregated server throughput (ops/sec) with many concurrent
// clients issuing Zipf-distributed Set/Get requests against a 4-server
// hybrid cluster (paper: 100 clients on 32 nodes, 1 GB aggregated RAM, 4 GB
// SSD cap, 2 GB of 8 KB pairs; here 1/16-scaled with thread clients).
//
// Paper shape to reproduce: NonB-b/i achieve 2-2.5x the blocking designs'
// throughput; adaptive I/O alone (Opt-Block) gives ~1.3x over Def-Block.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 7(c): aggregated throughput, 4-server hybrid cluster");

  constexpr unsigned kClients = 8;
  // One run of a design spreads widely on a shared host (87-276 kops within
  // seven runs of one commit), so each design runs five times and the
  // medians are compared. The order rotates every round: no design always
  // runs first, or after the same neighbour.
  const std::size_t rounds = smoke() ? 1 : 5;
  constexpr std::size_t kDesigns = std::size(core::kHybridDesigns);
  std::printf("  clients=%u, servers=4, 8KB values, 2x data:RAM, Zipf 50:50, "
              "%zu rounds\n\n",
              kClients, rounds);
  std::array<std::vector<double>, kDesigns> kops;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < kDesigns; ++i) {
      const std::size_t d = (i + round) % kDesigns;
      Scenario s;
      s.bed.design = core::kHybridDesigns[d];
      s.bed.num_servers = 4;
      s.clients = kClients;
      s.value_bytes = 8 << 10;
      s.data_ratio = 2.0;
      s.bed.total_server_memory = kScaledServerMemory;  // paper: 1 GB aggregated
      s.bed.total_ssd_limit = kScaledServerMemory * 4;  // paper: 4 GB SSD cap
      s.operations = 300;                               // per client
      // Shallow windows + coarse polls: with this many client threads on
      // few cores, deep windows turn into scheduler churn, not pipelining.
      s.window = 16;
      s.poll_compute = sim::us(20);
      kops[d].push_back(run_scenario(s).kops());
    }
  }
  std::array<double, kDesigns> median{};
  std::printf("  %-18s %12s %17s %8s\n", "design", "median kops", "min-max",
              "vs Def");
  for (std::size_t d = 0; d < kDesigns; ++d) {
    std::ranges::sort(kops[d]);
    median[d] = kops[d][kops[d].size() / 2];
    std::printf("  %-18s %12.2f %8.2f-%-8.2f %7.2fx\n",
                std::string(to_string(core::kHybridDesigns[d])).c_str(),
                median[d], kops[d].front(), kops[d].back(),
                median[0] > 0 ? median[d] / median[0] : 0.0);
  }
  // kHybridDesigns: Def, Opt-Block, NonB-b, NonB-i.
  std::printf("\n  NonB-b / NonB-i over Opt-Block (medians): %.2fx / %.2fx\n",
              median[2] / median[1], median[3] / median[1]);
  std::printf(
      "\n(paper: NonB 2-2.5x over blocking designs; adaptive I/O ~1.3x over "
      "direct I/O)\n");
  return 0;
}
