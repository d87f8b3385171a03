// Figure 2: time-wise breakdown of Memcached Set/Get latency across the six
// profiled stages (Section III-A), for the three baseline designs, with data
// (a) fitting and (b) not fitting in memory.
//
// Paper shape to reproduce:
//   (a) client wait / network dominates for both in-memory designs; all
//       server stages are small.
//   (b) MissPenalty dominates the in-memory designs; SlabAllocation (flush)
//       and CacheCheck+Load (SSD reads) blow up for H-RDMA-Def.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

namespace {

void print_breakdown_row(const char* design, const Outcome& outcome) {
  std::printf("  %-12s %10.1f %12.1f %10.1f %10.1f %10.1f %12.1f\n", design,
              outcome.server_us(metrics::Span::kSlabAllocation),
              outcome.server_us(metrics::Span::kCacheCheckLoad),
              outcome.server_us(metrics::Span::kCacheUpdate),
              outcome.server_us(metrics::Span::kResponse),
              client_wait_net_us(outcome),
              outcome.client_us(metrics::Span::kMissPenalty));
}

}  // namespace

int main() {
  sim::init_precise_timing();
  print_banner("Figure 2: six-stage Set/Get latency breakdown, baselines");

  for (const bool fits : {true, false}) {
    std::printf("(%c) data %s in memory   [us per op]\n", fits ? 'a' : 'b',
                fits ? "fits" : "does NOT fit");
    std::printf("  %-12s %10s %12s %10s %10s %10s %12s\n", "design",
                "SlabAlloc", "CheckLoad", "CacheUpd", "SrvResp",
                "ClientWait", "MissPenalty");
    for (const core::Design design : core::kBaselineDesigns) {
      Scenario s;
      s.bed.design = design;
      s.data_ratio = fits ? 1.0 : 1.5;
      const Outcome outcome = run_scenario(s);
      print_breakdown_row(std::string(to_string(design)).c_str(), outcome);
    }
    std::printf("\n");
  }
  std::printf(
      "note: ClientWait is the blocking wait net of server-stage time\n"
      "      (network + queueing); MissPenalty is backend database access.\n");
  return 0;
}
