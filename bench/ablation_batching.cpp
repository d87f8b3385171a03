// Ablation: what doorbell batching buys (DESIGN.md §12).
//
// The TX engine coalesces back-to-back same-server requests into one kOpBatch
// frame, so a run of n small ops pays one doorbell, one deadline header and
// one per-message fabric base latency instead of n of each, and the server's
// single network thread handles one message instead of n. This sweep measures
// closed-loop GET throughput (pipelined igets into reused, pre-registered
// destination buffers -- the warm-cache steady state a real client reaches)
// over batch_max_ops x value size x client threads, on both fabric profiles:
//
//  - fdr_rdma (RDMA-Mem): 1.2us base / 300ns doorbell -- per-message overhead
//    dominates small ops, so batching should win big (criterion: >=2x at
//    values <= 512 B with batch_max_ops >= 8 vs the default-off 1).
//  - ipoib (IPoIB-Mem): 15us base / 3us doorbell -- the same relative story
//    at much higher absolute cost.
//
// batch_max_ops = 1 is the byte-for-byte pre-batching wire path (asserted by
// tests/client/batch_test.cpp), so the batch=1 column is the true baseline.
// Warm-up rounds (cold registrations, first-touch) are excluded from the
// timed window. Emits BENCH_batching.json for tooling.
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "client/request.hpp"
#include "common/hash.hpp"
#include "core/testbed.hpp"

using namespace hykv;

namespace {

constexpr std::size_t kKeys = 512;
constexpr std::size_t kWindow = 32;  ///< igets in flight per thread.

struct Cell {
  core::Design design;
  unsigned batch;
  std::size_t value_bytes;
  unsigned threads;
};

struct CellOut {
  double mops = 0.0;       ///< Modelled (dilation-corrected) Mops/s.
  double fill = 0.0;       ///< Achieved client-side batch fill.
  std::uint64_t ops = 0;   ///< Ops in the timed window.
};

CellOut run_cell(const Cell& cell, unsigned warmup_rounds, unsigned rounds) {
  core::TestBedConfig cfg;
  cfg.design = cell.design;
  cfg.total_server_memory = bench::kScaledServerMemory;
  cfg.client_batch_max_ops = cell.batch;
  core::TestBed bed(cfg);

  {
    // Preload outside any timed window.
    sim::ScopedTimeScale preload_scale(0.0);
    auto loader = bed.make_client("preload");
    for (std::size_t i = 0; i < kKeys; ++i) {
      (void)loader->set(make_key(i), make_value(i, cell.value_bytes), 0, 0);
    }
  }

  // One shared client: coalescing happens in its TX queue, fed by every
  // thread -- exactly the deployment the knob targets.
  auto client = bed.make_client("bench");

  const sim::ScopedTimeScale dilation(bench::kTimeDilation);
  std::barrier sync(static_cast<std::ptrdiff_t>(cell.threads) + 1);
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  workers.reserve(cell.threads);
  for (unsigned t = 0; t < cell.threads; ++t) {
    workers.emplace_back([&, t] {
      // Fixed destination buffers, reused every round: after the first
      // (warm-up) touch each iget hits the registration cache -- the steady
      // state batching is supposed to amortize further.
      const std::size_t dest_bytes = cell.value_bytes + 64;
      std::vector<std::unique_ptr<char[]>> dests;
      std::vector<client::Request> reqs(kWindow);
      dests.reserve(kWindow);
      for (std::size_t w = 0; w < kWindow; ++w) {
        dests.push_back(std::make_unique<char[]>(dest_bytes));
      }
      std::uint64_t x = 0xBA7C4 + t;
      std::uint64_t done = 0;
      const auto round = [&](bool measured) {
        for (std::size_t w = 0; w < kWindow; ++w) {
          x = mix64(x + w);
          (void)client->iget(make_key(x % kKeys),
                             std::span<char>(dests[w].get(), dest_bytes),
                             reqs[w]);
        }
        for (std::size_t w = 0; w < kWindow; ++w) {
          client->wait(reqs[w]);
          if (measured && reqs[w].status() == StatusCode::kOk) ++done;
        }
      };
      for (unsigned r = 0; r < warmup_rounds; ++r) round(false);
      sync.arrive_and_wait();  // timed window opens
      for (unsigned r = 0; r < rounds; ++r) round(true);
      sync.arrive_and_wait();  // timed window closes
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }

  sync.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  sync.arrive_and_wait();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (auto& worker : workers) worker.join();

  CellOut out;
  out.ops = completed.load();
  const double seconds =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      1e9;
  // Dilation-corrected: modelled sleeps ran kTimeDilation x slower in wall
  // time, so wall throughput scales back up by the same factor.
  out.mops = static_cast<double>(out.ops) / seconds / 1e6 * bench::kTimeDilation;
  out.fill = client->counters().batch_fill();
  return out;
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner("Ablation: doorbell batching (batch_max_ops sweep)");

  const bool smoke = bench::smoke();
  const std::vector<unsigned> batches =
      smoke ? std::vector<unsigned>{1, 8} : std::vector<unsigned>{1, 4, 8, 16};
  const std::vector<std::size_t> values =
      smoke ? std::vector<std::size_t>{512}
            : std::vector<std::size_t>{64, 512, 4096};
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 4};
  const unsigned warmup_rounds = smoke ? 1 : 4;
  const unsigned rounds = smoke ? 2 : 40;

  std::string json = "{\"bench\":\"batching\",\"smoke\":" +
                     std::string(smoke ? "true" : "false") + ",\"cells\":[";
  bool first_cell = true;
  // headline: best fdr small-value (<=512 B) ratio of batch_max_ops >= 8
  // over batch=1 across thread counts -- the acceptance criterion is >=2x.
  double headline_ratio = 0.0;
  double base_small[2][3][2] = {};  // [design][value idx][threads idx]

  for (const core::Design design :
       {core::Design::kRdmaMem, core::Design::kIpoibMem}) {
    std::printf("%s (%s)\n", core::to_string(design).data(),
                fabric_profile(design).name.c_str());
    std::printf("  %6s %8s %8s %12s %10s %8s\n", "batch", "value", "threads",
                "Mops (mod)", "vs b=1", "fill");
    for (const unsigned batch : batches) {
      for (std::size_t vi = 0; vi < values.size(); ++vi) {
        for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
          const Cell cell{design, batch, values[vi], thread_counts[ti]};
          const CellOut out = run_cell(cell, warmup_rounds, rounds);
          const std::size_t di = design == core::Design::kRdmaMem ? 0 : 1;
          double ratio = 0.0;
          if (batch == 1) {
            base_small[di][vi][ti] = out.mops;
            ratio = 1.0;
          } else if (base_small[di][vi][ti] > 0.0) {
            ratio = out.mops / base_small[di][vi][ti];
          }
          if (design == core::Design::kRdmaMem && batch >= 8 &&
              cell.value_bytes <= 512 && ratio > headline_ratio) {
            headline_ratio = ratio;
          }
          std::printf("  %6u %7zuB %8u %12.3f %9.2fx %8.2f\n", batch,
                      cell.value_bytes, cell.threads, out.mops, ratio,
                      out.fill);
          if (!first_cell) json += ",";
          first_cell = false;
          json += "{\"design\":\"" +
                  std::string(core::to_string(design)) + "\",\"batch\":" +
                  std::to_string(batch) + ",\"value_bytes\":" +
                  std::to_string(cell.value_bytes) + ",\"threads\":" +
                  std::to_string(cell.threads) + ",\"mops\":" +
                  std::to_string(out.mops) + ",\"ratio_vs_batch1\":" +
                  std::to_string(ratio) + ",\"fill\":" +
                  std::to_string(out.fill) + "}";
        }
      }
    }
    std::printf("\n");
  }

  std::printf("headline: fdr_rdma, value <= 512 B, batch_max_ops >= 8 vs 1: "
              "%.2fx (criterion: >=2x)\n\n",
              headline_ratio);
  json += "],\"headline_small_value_speedup\":" +
          std::to_string(headline_ratio) + "}\n";

  bench::write_bench_json("BENCH_batching.json", json);
  return 0;
}
