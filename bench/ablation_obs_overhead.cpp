// Ablation: what does always-on latency observability cost?
//
// The PR's claim is that the LatencyRecorder (per-worker atomic histograms on
// every request) is cheap enough to leave on by default. The measurement has
// to be careful: the per-request instrumentation is ~200ns while closed-loop
// end-to-end numbers (wall or CPU time) swing several percent run to run on
// a shared host -- an A/B throughput diff cannot resolve a <=2% effect here
// (the on+trace mode repeatedly measures *cheaper* than plain on, which is
// the noise floor announcing itself). So the headline is built from parts
// that are individually stable:
//
//  1. micro: the cost of each instrumentation primitive in a tight loop --
//     record_op/record_span (histogram bucket + count/sum/min/max relaxed
//     RMWs) and the steady-clock read.
//  2. per-request site count: a recorded blocking GET on the in-memory
//     design touches the recorder 7x (server: end-to-end op, fabric-transfer,
//     store-phase, optimistic-read, response spans; client: issue->complete
//     op, client-wait span) and adds 9 clock reads that only recording pays
//     (server: store start, response start/end; store: read start/end;
//     client: issue stamp, completion stamp, wait start/end). Tracing adds
//     one relaxed fetch_add per request plus a mutexed ring write on sampled
//     requests.
//  3. baseline: measured closed-loop CPU per op (CLOCK_PROCESS_CPUTIME_ID)
//     with recording off, under time scale 0 so modelled device/fabric
//     sleeps vanish -- the least-favourable (all-CPU) denominator; any
//     modelled time would only dilute the ratio.
//
// headline overhead = (7*record + 9*clock_read) / baseline_cpu_per_op.
// The raw end-to-end on/off CPU deltas are printed as a cross-check; they
// bracket the headline within their noise.
//
// Headline criterion: <=2%. Emits BENCH_obs_overhead.json for tooling.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "core/testbed.hpp"

using namespace hykv;

namespace {

constexpr std::size_t kKeys = 512;
constexpr std::size_t kValueBytes = 256;

// Instrumentation sites on a recorded request (see the header comment).
constexpr double kRecordsPerRequest = 7.0;
constexpr double kClockReadsPerRequest = 9.0;

struct Mode {
  const char* name;
  bool record_latency;
  unsigned trace_sample_shift;
};

constexpr Mode kModes[] = {
    {"off", false, 0},
    {"on", true, 0},
    {"on_trace", true, 6},  // trace every 64th request on top of recording
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double micro_record_ns(std::uint64_t iterations) {
  metrics::LatencyRecorder recorder(16);
  std::uint64_t x = 0x0B5E;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = mix64(x + i);
    recorder.record_op(metrics::Op::kGet, (x % 100000) + 1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Defeat dead-code elimination: the merged count must be exact.
  if (recorder.op_histogram(metrics::Op::kGet).count() != iterations) {
    std::printf("micro self-check failed\n");
  }
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(iterations);
}

double micro_clock_read_ns(std::uint64_t iterations) {
  std::uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    acc ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (acc == 1) std::printf("clock self-check\n");  // keep acc live
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(iterations);
}

struct CellResult {
  double cpu_ns_per_op = 0.0;
  double wall_mops = 0.0;
};

/// One closed-loop rep: a fresh bed in the given mode, `ops` blocking ops
/// (90% GET mix), measured over the op loop only.
CellResult run_cell(const Mode& mode, std::uint64_t ops) {
  core::TestBedConfig cfg;
  cfg.design = core::Design::kRdmaMem;
  cfg.total_server_memory = 16 << 20;
  cfg.server.record_latency = mode.record_latency;
  cfg.server.trace_sample_shift = mode.trace_sample_shift;
  cfg.client_record_latency = mode.record_latency;
  core::TestBed bed(cfg);
  auto client = bed.make_client("bench");

  for (std::size_t i = 0; i < kKeys; ++i) {
    (void)client->set(make_key(i), make_value(i, kValueBytes), 0, 0);
  }

  std::vector<char> out;
  std::uint64_t x = 0xFACE;
  const std::uint64_t cpu_start = process_cpu_ns();
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < ops; ++op) {
    x = mix64(x + op);
    const std::string key = make_key(x % kKeys);
    if ((x >> 8) % 100 < 90) {
      (void)client->get(key, out);
    } else {
      (void)client->set(key, make_value(x % kKeys, kValueBytes), 0, 0);
    }
  }
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  const std::uint64_t cpu_elapsed = process_cpu_ns() - cpu_start;

  CellResult result;
  result.cpu_ns_per_op =
      static_cast<double>(cpu_elapsed) / static_cast<double>(ops);
  const double wall_seconds =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              wall_elapsed)
                              .count()) /
      1e9;
  result.wall_mops = static_cast<double>(ops) / wall_seconds / 1e6;
  return result;
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner("Ablation: observability overhead (recording off/on/on+trace)");

  const bool smoke = bench::smoke();
  const std::uint64_t micro_iters = smoke ? 20000 : 2000000;
  const std::uint64_t ops_per_rep = smoke ? 300 : 30000;
  const unsigned reps = smoke ? 2 : 5;

  const double record_ns = micro_record_ns(micro_iters);
  const double clock_ns = micro_clock_read_ns(micro_iters);
  const double added_ns =
      kRecordsPerRequest * record_ns + kClockReadsPerRequest * clock_ns;
  std::printf("micro: record_op = %.1f ns, clock read = %.1f ns "
              "-> %.0f ns added per recorded request "
              "(%.0f records + %.0f clock reads)\n\n",
              record_ns, clock_ns, added_ns, kRecordsPerRequest,
              kClockReadsPerRequest);

  // Time scale 0: modelled costs collapse so the measured loop is all-CPU --
  // the least-favourable denominator for the overhead ratio.
  const sim::ScopedTimeScale cpu_bound(0.0);

  std::printf("end-to-end: closed loop, 90%% GET, %llu ops/rep, best of %u "
              "interleaved reps\n",
              static_cast<unsigned long long>(ops_per_rep), reps);
  double best_cpu[kModeCount];
  double best_mops[kModeCount] = {};
  for (std::size_t m = 0; m < kModeCount; ++m) best_cpu[m] = 1e18;
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::size_t m = 0; m < kModeCount; ++m) {
      const CellResult r = run_cell(kModes[m], ops_per_rep);
      if (r.cpu_ns_per_op < best_cpu[m]) best_cpu[m] = r.cpu_ns_per_op;
      if (r.wall_mops > best_mops[m]) best_mops[m] = r.wall_mops;
    }
  }
  for (std::size_t m = 0; m < kModeCount; ++m) {
    std::printf("  %-8s %8.0f ns CPU/op  (%.3f Mops/s wall)\n", kModes[m].name,
                best_cpu[m], best_mops[m]);
  }
  const double ab_on_pct =
      (best_cpu[1] - best_cpu[0]) / best_cpu[0] * 100.0;
  const double ab_trace_pct =
      (best_cpu[2] - best_cpu[0]) / best_cpu[0] * 100.0;
  std::printf("  raw A/B deltas: on %+.2f%%, on+trace %+.2f%% "
              "(cross-check only: noise floor is percent-level)\n",
              ab_on_pct, ab_trace_pct);

  const double overhead_pct = added_ns / best_cpu[0] * 100.0;
  std::printf("\nheadline: recording adds %.0f ns to a %.0f ns-CPU request "
              "= %.2f%% (criterion: <=2%%)\n\n",
              added_ns, best_cpu[0], overhead_pct);

  std::string json =
      "{\"bench\":\"obs_overhead\",\"smoke\":" +
      std::string(smoke ? "true" : "false") +
      ",\"record_op_ns\":" + std::to_string(record_ns) +
      ",\"clock_read_ns\":" + std::to_string(clock_ns) +
      ",\"added_ns_per_request\":" + std::to_string(added_ns) + ",\"cells\":[";
  for (std::size_t m = 0; m < kModeCount; ++m) {
    if (m != 0) json += ",";
    json += "{\"mode\":\"" + std::string(kModes[m].name) +
            "\",\"cpu_ns_per_op\":" + std::to_string(best_cpu[m]) +
            ",\"wall_mops\":" + std::to_string(best_mops[m]) + "}";
  }
  json += "],\"ab_on_pct\":" + std::to_string(ab_on_pct) +
          ",\"ab_trace_pct\":" + std::to_string(ab_trace_pct) +
          ",\"overhead_pct\":" + std::to_string(overhead_pct) + "}\n";

  bench::write_bench_json("BENCH_obs_overhead.json", json);
  return 0;
}
