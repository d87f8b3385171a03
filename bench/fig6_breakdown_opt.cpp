// Figure 6: Set/Get latency breakdown with the proposed designs added --
// H-RDMA-Opt-Block (adaptive I/O), H-RDMA-Opt-NonB-b and -NonB-i (non-
// blocking extensions) -- against the baselines, with data (a) fitting and
// (b) not fitting in memory.
//
// Paper shape to reproduce:
//   (a) NonB-i/b reach RDMA-Mem-level latency;
//   (b) Opt-Block ~2x better than H-RDMA-Def (adaptive I/O);
//       NonB-i/b 10-16x better than H-RDMA-Def, 3.3-8x over Opt-Block,
//       and ~3.6x better than IPoIB-Mem even when data fits.
#include <cstdio>

#include "bench_util.hpp"

using namespace hykv;
using namespace hykv::bench;

int main() {
  sim::init_precise_timing();
  print_banner("Figure 6: breakdown with non-blocking extensions");

  for (const bool fits : {true, false}) {
    std::printf("(%c) data %s in memory\n", fits ? 'a' : 'b',
                fits ? "fits" : "does NOT fit");
    std::printf("  %-18s %10s | %9s %9s %8s %8s %9s %9s\n", "design",
                "avg us/op", "SlabAll", "ChkLoad", "CacheUp", "SrvResp",
                "CliWait", "MissPen");
    double ipoib_avg = 0.0, def_avg = 0.0, opt_block_avg = 0.0;
    for (const core::Design design : core::kAllDesigns) {
      Scenario s;
      s.bed.design = design;
      s.data_ratio = fits ? 1.0 : 1.5;
      const Outcome outcome = run_scenario(s);
      const double avg = outcome.avg_us();
      std::printf("  %-18s %10.1f | %9.1f %9.1f %8.1f %8.1f %9.1f %9.1f\n",
                  std::string(to_string(design)).c_str(), avg,
                  outcome.server_us(metrics::Span::kSlabAllocation),
                  outcome.server_us(metrics::Span::kCacheCheckLoad),
                  outcome.server_us(metrics::Span::kCacheUpdate),
                  outcome.server_us(metrics::Span::kResponse),
                  client_wait_net_us(outcome),
                  outcome.client_us(metrics::Span::kMissPenalty));
      switch (design) {
        case core::Design::kIpoibMem: ipoib_avg = avg; break;
        case core::Design::kHRdmaDef: def_avg = avg; break;
        case core::Design::kHRdmaOptBlock: opt_block_avg = avg; break;
        case core::Design::kHRdmaOptNonbI: {
          std::printf(
              "  -> NonB-i vs H-RDMA-Def: %.1fx   vs Opt-Block: %.1fx   vs "
              "IPoIB-Mem: %.1fx\n",
              def_avg / avg, opt_block_avg / avg, ipoib_avg / avg);
          break;
        }
        default: break;
      }
    }
    if (!fits) {
      std::printf("  (paper: Opt-Block ~2x over Def; NonB ~10-16x over Def, "
                  "3.3-8x over Opt-Block)\n");
    }
    std::printf("\n");
  }
  return 0;
}
