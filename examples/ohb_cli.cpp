// OHB-style command-line benchmark driver -- the hykv equivalent of the OSU
// HiBD Benchmark (paper ref [16]) this paper's evaluation is built on. Runs
// any design / workload combination from the shell:
//
//   ./ohb_cli --design=h-rdma-opt-nonb-i --ratio=1.5 --value=32768
//             --ops=2000 --read=0.5 --pattern=zipf --servers=1 --clients=1
//
// Prints the standard OHB-style summary: average latency, throughput,
// hit rate, overlap%, and the server-side stage breakdown.
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "store/item.hpp"
#include "store/slab.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hykv;

std::optional<core::Design> parse_design(std::string_view name) {
  for (const core::Design design : core::kAllDesigns) {
    std::string lowered(to_string(design));
    for (char& c : lowered) c = static_cast<char>(std::tolower(c));
    if (name == lowered) return design;
  }
  return std::nullopt;
}

std::optional<std::string_view> arg_value(int argc, char** argv,
                                          std::string_view name) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.size() > name.size() + 3 && arg.substr(0, 2) == "--" &&
        arg.substr(2, name.size()) == name && arg[2 + name.size()] == '=') {
      return arg.substr(name.size() + 3);
    }
  }
  return std::nullopt;
}

double arg_double(int argc, char** argv, std::string_view name, double fallback) {
  const auto v = arg_value(argc, argv, name);
  return v.has_value() ? std::atof(std::string(*v).c_str()) : fallback;
}

long arg_long(int argc, char** argv, std::string_view name, long fallback) {
  const auto v = arg_value(argc, argv, name);
  return v.has_value() ? std::atol(std::string(*v).c_str()) : fallback;
}

void usage() {
  std::printf(
      "usage: ohb_cli [--design=NAME] [--ratio=R] [--value=BYTES] [--ops=N]\n"
      "               [--read=FRACTION] [--pattern=zipf|uniform] [--servers=N]\n"
      "               [--clients=N] [--memory=BYTES] [--ssd=sata|nvme]\n"
      "designs: ipoib-mem rdma-mem h-rdma-def h-rdma-opt-block\n"
      "         h-rdma-opt-nonb-b h-rdma-opt-nonb-i\n");
}

}  // namespace

int main(int argc, char** argv) {
  sim::init_precise_timing();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage();
      return 0;
    }
  }

  const auto design_name = arg_value(argc, argv, "design").value_or("h-rdma-opt-nonb-i");
  const auto design = parse_design(design_name);
  if (!design.has_value()) {
    std::fprintf(stderr, "unknown design '%s'\n", std::string(design_name).c_str());
    usage();
    return 1;
  }

  const double ratio = arg_double(argc, argv, "ratio", 1.5);
  const auto value_bytes = static_cast<std::size_t>(arg_long(argc, argv, "value", 32 << 10));
  const auto ops = static_cast<std::uint64_t>(arg_long(argc, argv, "ops", 1000));
  const double read_fraction = arg_double(argc, argv, "read", 0.5);
  const auto servers = static_cast<unsigned>(arg_long(argc, argv, "servers", 1));
  const auto clients = static_cast<unsigned>(arg_long(argc, argv, "clients", 1));
  const auto memory = static_cast<std::size_t>(
      arg_long(argc, argv, "memory", 64 << 20));
  const bool uniform = arg_value(argc, argv, "pattern").value_or("zipf") == "uniform";
  const bool nvme = arg_value(argc, argv, "ssd").value_or("sata") == "nvme";

  workload::WorkloadConfig wl;
  {
    store::SlabAllocator::Config slab_cfg;
    const std::size_t footprint = store::slab_item_footprint(
        slab_cfg, store::item_total_size(20, value_bytes));
    wl.key_count = static_cast<std::uint64_t>(
        ratio * 0.98 * static_cast<double>(memory) / static_cast<double>(footprint));
  }
  wl.value_bytes = value_bytes;
  wl.read_fraction = read_fraction;
  wl.operations = ops;
  wl.pattern = uniform ? workload::Pattern::kUniform : workload::Pattern::kZipf;
  wl.api = core::api_mode(*design);
  wl.verify_values = true;

  core::TestBedConfig bed_cfg;
  bed_cfg.design = *design;
  bed_cfg.num_servers = servers;
  bed_cfg.total_server_memory = memory;
  bed_cfg.ssd = nvme ? SsdProfile::nvme() : SsdProfile::sata();
  bed_cfg.backend_resolver = workload::dataset_resolver(wl.key_count, wl.value_bytes);
  core::TestBed bed(bed_cfg);

  std::printf("design=%s servers=%u clients=%u keys=%llu value=%zuB ratio=%.2f "
              "read=%.2f pattern=%s ssd=%s\n",
              std::string(to_string(*design)).c_str(), servers, clients,
              static_cast<unsigned long long>(wl.key_count), value_bytes, ratio,
              read_fraction, uniform ? "uniform" : "zipf",
              bed_cfg.ssd.name.c_str());

  {
    sim::ScopedTimeScale preload_scale(0.0);
    auto loader = bed.make_client("preload");
    workload::preload(*loader, wl);
    bed.sync_storage();
  }
  bed.reset_metrics();

  workload::WorkloadResult result;
  if (clients <= 1) {
    auto client = bed.make_client("ohb");
    result = workload::run(*client, wl);
  } else {
    result = workload::run_multi(bed, clients, wl);
  }

  const double hit_pct = result.reads == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(result.hits) /
                                   static_cast<double>(result.reads);
  std::printf("\navg latency    : %10.1f us/op\n", result.avg_latency_us());
  std::printf("throughput     : %10.2f kops/s\n", result.throughput_kops());
  std::printf("hit rate       : %9.1f%%\n", hit_pct);
  std::printf("overlap        : %9.1f%%\n", 100.0 * result.overlap_fraction());
  std::printf("errors/corrupt : %llu / %llu\n",
              static_cast<unsigned long long>(result.errors),
              static_cast<unsigned long long>(result.verify_failures));

  // Server stages per op: span sums over the requests the servers handled.
  const std::uint64_t handled = bed.server_ops_handled();
  const auto stage_us = [&](metrics::Span span) {
    return metrics::per_op_us(bed.server_span(span).sum_ns(), handled);
  };
  std::printf("\nserver stages [us/op]: slab=%.1f check+load=%.1f update=%.1f "
              "resp=%.1f\n",
              stage_us(metrics::Span::kSlabAllocation),
              stage_us(metrics::Span::kCacheCheckLoad),
              stage_us(metrics::Span::kCacheUpdate),
              stage_us(metrics::Span::kResponse));
  const auto store = bed.store_stats();
  std::printf("store: ram_hits=%llu ssd_hits=%llu flushes=%llu promoted=%llu "
              "dropped=%llu\n",
              static_cast<unsigned long long>(store.ram_hits),
              static_cast<unsigned long long>(store.ssd_hits),
              static_cast<unsigned long long>(store.flushes),
              static_cast<unsigned long long>(store.promotions),
              static_cast<unsigned long long>(store.dropped_evictions));
  return result.errors == 0 && result.verify_failures == 0 ? 0 : 1;
}
