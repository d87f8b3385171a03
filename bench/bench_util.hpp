// Shared scaffolding for the figure-reproduction benchmarks.
//
// Scaling: the paper ran 1 GB of Memcached RAM against 1 GB ("fits") or
// 1.5 GB ("does not fit") of 32 KB key-value pairs on real hardware. We keep
// every ratio and shrink absolute size 16x so a full figure regenerates in
// seconds: 64 MB of cache RAM vs 64/96 MB datasets. Latency models are NOT
// scaled -- microseconds printed here are modelled microseconds.
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/sim_time.hpp"
#include "core/design.hpp"
#include "store/slab.hpp"
#include "store/item.hpp"
#include "core/testbed.hpp"
#include "workload/workload.hpp"

namespace hykv::bench {

constexpr std::size_t kScaledServerMemory = std::size_t{64} << 20;  // paper: 1 GB
constexpr std::size_t kDefaultValueBytes = std::size_t{32} << 10;   // paper: 32 KB
constexpr std::uint64_t kDefaultOps = 1200;

/// Benches run with every modelled latency dilated by this factor and
/// results divided back at print time. Host-CPU costs (memcpys, context
/// switches -- this box has one core) do not dilate, so dilation shrinks
/// their contamination of the modelled numbers by the same factor.
constexpr double kTimeDilation = 4.0;

/// Keys so the *stored footprint* (slab-class chunk + page waste, not raw
/// value bytes) is `ratio` x the cache RAM. ratio 1.0 genuinely fits; 1.5
/// genuinely overflows by half -- matching the paper's 1 GB / 1.5 GB setup.
inline std::uint64_t keys_for_ratio(double ratio, std::size_t memory,
                                    std::size_t value_bytes) {
  store::SlabAllocator::Config slab_cfg;  // default 1 MB pages / 1.25 growth
  const std::size_t footprint = store::slab_item_footprint(
      slab_cfg, store::item_total_size(20, value_bytes));
  // 2% headroom so "fits" is not knife-edge against per-class carving.
  return static_cast<std::uint64_t>(ratio * 0.98 *
                                    static_cast<double>(memory) /
                                    static_cast<double>(footprint));
}

struct Scenario {
  /// The deployment (design, servers, SSD, memory and SSD totals, server
  /// knobs). run_scenario adds only the dataset's backend resolver.
  core::TestBedConfig bed;
  double data_ratio = 1.0;  ///< dataset bytes / cache RAM bytes.
  std::size_t value_bytes = kDefaultValueBytes;
  double read_fraction = 0.5;
  std::uint64_t operations = kDefaultOps;
  unsigned clients = 1;
  std::size_t window = 64;               ///< Non-blocking outstanding cap.
  sim::Nanos poll_compute = sim::us(2);  ///< Compute chunk between polls.
  workload::Pattern pattern = workload::Pattern::kZipf;
};

struct Outcome {
  workload::WorkloadResult result;
  /// Span sums behind the paper's six stages (DESIGN.md §10): server spans
  /// summed over all servers, per request they handled; client spans of the
  /// single measured client (zero with several), per wait.
  std::array<std::uint64_t, metrics::kSpanCount> server_span_ns{};
  std::uint64_t server_ops = 0;
  std::array<std::uint64_t, metrics::kSpanCount> client_span_ns{};
  std::uint64_t client_waits = 0;
  store::ManagerStats store;
  std::uint64_t backend_fetches = 0;

  // Dilation-normalised figures (modelled microseconds / kops).
  [[nodiscard]] double avg_us() const {
    return result.avg_latency_us() / kTimeDilation;
  }
  [[nodiscard]] double set_us() const {
    return result.write_latency.mean_us() / kTimeDilation;
  }
  [[nodiscard]] double get_us() const {
    return result.read_latency.mean_us() / kTimeDilation;
  }
  [[nodiscard]] double kops() const {
    return result.throughput_kops() * kTimeDilation;
  }
  [[nodiscard]] double server_us(metrics::Span span) const {
    return metrics::per_op_us(server_span_ns[static_cast<std::size_t>(span)],
                              server_ops) /
           kTimeDilation;
  }
  [[nodiscard]] double client_us(metrics::Span span) const {
    return metrics::per_op_us(client_span_ns[static_cast<std::size_t>(span)],
                              client_waits) /
           kTimeDilation;
  }
  [[nodiscard]] double overlap_pct() const {
    return 100.0 * result.overlap_fraction();
  }
};

/// Smoke mode (HYKV_BENCH_SMOKE=1, the `bench-smoke` ctest label): every
/// bench binary shrinks its op counts to exercise its full pipeline in
/// seconds. The printed figures are meaningless in this mode -- it exists
/// to catch bit-rot, not to regenerate figures.
inline bool smoke() { return std::getenv("HYKV_BENCH_SMOKE") != nullptr; }

inline std::uint64_t smoke_clamped_ops(std::uint64_t operations) {
  return smoke() ? std::min<std::uint64_t>(operations, 96) : operations;
}

inline Outcome run_scenario(const Scenario& s) {
  workload::WorkloadConfig wl;
  wl.key_count =
      keys_for_ratio(s.data_ratio, s.bed.total_server_memory, s.value_bytes);
  wl.value_bytes = s.value_bytes;
  wl.read_fraction = s.read_fraction;
  wl.operations = smoke_clamped_ops(s.operations);
  wl.api = core::api_mode(s.bed.design);
  wl.verify_values = true;
  wl.window = s.window;
  wl.poll_compute = s.poll_compute;
  wl.pattern = s.pattern;

  core::TestBedConfig bed_cfg = s.bed;
  bed_cfg.backend_resolver =
      workload::dataset_resolver(wl.key_count, wl.value_bytes);
  core::TestBed bed(bed_cfg);

  {
    // Warm-up is not part of any measured figure.
    sim::ScopedTimeScale preload_scale(0.0);
    auto loader = bed.make_client("preload");
    workload::preload(*loader, wl);
    bed.sync_storage();
  }
  bed.reset_metrics();

  const sim::ScopedTimeScale dilation(kTimeDilation);
  Outcome outcome;
  if (s.clients <= 1) {
    auto client = bed.make_client("bench");
    outcome.result = workload::run(*client, wl);
    for (std::size_t i = 0; i < metrics::kSpanCount; ++i) {
      outcome.client_span_ns[i] =
          client->span_latency(static_cast<metrics::Span>(i)).sum_ns();
    }
    outcome.client_waits =
        client->span_latency(metrics::Span::kClientWait).count();
  } else {
    outcome.result = workload::run_multi(bed, s.clients, wl);
  }
  for (std::size_t i = 0; i < metrics::kSpanCount; ++i) {
    outcome.server_span_ns[i] =
        bed.server_span(static_cast<metrics::Span>(i)).sum_ns();
  }
  outcome.server_ops = bed.server_ops_handled();
  outcome.store = bed.store_stats();
  outcome.backend_fetches = bed.backend().fetches();
  return outcome;
}

inline void print_banner(const char* title) {
  init_log_level_from_env();
  const auto rdma = FabricProfile::fdr_rdma();
  const auto ipoib = FabricProfile::ipoib();
  const auto sata = SsdProfile::sata();
  const auto nvme = SsdProfile::nvme();
  std::printf("==== %s ====\n", title);
  std::printf(
      "profiles: %s base=%.1fus bw=%.1fGB/s | %s base=%.1fus bw=%.1fGB/s\n",
      rdma.name.c_str(), static_cast<double>(rdma.base_latency.count()) / 1e3,
      rdma.bytes_per_us / 1e3, ipoib.name.c_str(),
      static_cast<double>(ipoib.base_latency.count()) / 1e3,
      ipoib.bytes_per_us / 1e3);
  std::printf(
      "          %s r=%.0fus w=%.0fus | %s r=%.0fus w=%.0fus | backend ~1.8ms\n",
      sata.name.c_str(), static_cast<double>(sata.read_base.count()) / 1e3,
      static_cast<double>(sata.write_base.count()) / 1e3, nvme.name.c_str(),
      static_cast<double>(nvme.read_base.count()) / 1e3,
      static_cast<double>(nvme.write_base.count()) / 1e3);
  std::printf("scaling : 1/16 of the paper's data sizes; latencies unscaled\n\n");
}

/// Writes a bench's JSON record to `path`, relative to the working
/// directory, and prints where it went.
inline void write_bench_json(const char* path, const std::string& json) {
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::printf("could not write %s\n", path);
  }
}

/// "Client wait (net)": blocking-wait time not attributable to server-side
/// stages (network + queueing), per op, matching how Fig. 2 stacks stages.
/// Dilation-normalised.
inline double client_wait_net_us(const Outcome& outcome) {
  const double wait = outcome.client_us(metrics::Span::kClientWait);
  double server_stage_sum = 0;
  for (const metrics::Span span :
       {metrics::Span::kSlabAllocation, metrics::Span::kCacheCheckLoad,
        metrics::Span::kCacheUpdate, metrics::Span::kResponse}) {
    server_stage_sum += outcome.server_us(span);
  }
  return wait > server_stage_sum ? wait - server_stage_sum : 0.0;
}

}  // namespace hykv::bench
