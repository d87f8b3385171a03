// Ablation: shard count x worker threads on the hybrid slab store.
//
// The pre-PR store was one HybridSlabManager behind one mutex: every worker
// thread of the async server serialised on it, so processing_threads > 1
// bought nothing on the storage tier. ShardedManager partitions the store by
// key hash; this sweep measures what that buys as concurrency grows.
//
// Two sweeps, one caveat:
//   modelled   -- each set/get carries ManagerConfig::modelled_op_cost of
//                 under-lock CPU time, realised as modelled time the same way
//                 every fabric/SSD cost in this repo is (sleep on the real
//                 clock, see sim_time.hpp). Lock holders of the *same* shard
//                 serialise their cost; holders of different shards overlap.
//                 This reproduces multi-core lock-contention behaviour on any
//                 host, including single-core CI boxes where raw mutex
//                 contention is invisible (one core serialises everything
//                 anyway). The headline >=2x criterion is read off this sweep.
//   cpu_bound  -- modelled_op_cost = 0: the store's real host-CPU path
//                 (hash, lock, memcpy). On a multi-core host this shows the
//                 same shape; on a single-core host it is flat by physics,
//                 which EXPERIMENTS.md calls out rather than hides.
//
// Also measures the facade tax: raw HybridSlabManager vs ShardedManager with
// shards=1 (must be within noise -- it is one virtual-call-free forward plus
// one hash already computed by the shard selector).
//
// Emits BENCH_shard_scaling.json next to the binary for tooling.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "common/random.hpp"
#include "store/sharded_manager.hpp"

using namespace hykv;

namespace {

constexpr std::size_t kKeys = 4096;
constexpr std::size_t kValueBytes = 512;

struct Cell {
  unsigned shards = 1;
  unsigned threads = 1;
  double mops = 0.0;
};

store::ManagerConfig store_config(unsigned shards, sim::Nanos op_cost) {
  store::ManagerConfig cfg;
  cfg.mode = store::StorageMode::kInMemory;
  cfg.shards = shards;
  cfg.slab.slab_bytes = std::size_t{1} << 20;
  cfg.slab.memory_limit = std::size_t{64} << 20;  // whole keyspace RAM-resident
  cfg.modelled_op_cost = op_cost;
  return cfg;
}

/// One sweep cell: `threads` workers hammer a 50/50 set/get mix over the
/// pre-populated keyspace; returns Mops/s of the measured phase.
double run_cell(unsigned shards, unsigned threads, sim::Nanos op_cost,
                std::uint64_t ops_per_thread) {
  store::ShardedManager manager(store_config(shards, op_cost), nullptr);
  {
    // Preload outside modelled time (the established preload idiom).
    sim::ScopedTimeScale preload_scale(0.0);
    for (std::size_t i = 0; i < kKeys; ++i) {
      (void)manager.store(make_key(i), make_value(i, kValueBytes), 0, 0);
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto start = sim::now();
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&manager, t, ops_per_thread] {
      std::vector<char> out;
      std::uint32_t flags = 0;
      std::uint64_t x = mix64(0xABCD + t);
      for (std::uint64_t op = 0; op < ops_per_thread; ++op) {
        x = mix64(x + op);
        const std::string key = make_key(x % kKeys);
        if (x & 1) {
          (void)manager.store(key, make_value(x % kKeys, kValueBytes), 0, 0);
        } else {
          (void)manager.get(key, out, flags);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double seconds =
      static_cast<double>((sim::now() - start).count()) / 1e9;
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  return total_ops / seconds / 1e6;
}

std::vector<Cell> run_sweep(const char* title, sim::Nanos op_cost,
                            std::uint64_t ops_per_thread) {
  std::printf("%s (ops/thread=%llu, modelled op cost=%.0fus)\n", title,
              static_cast<unsigned long long>(ops_per_thread),
              static_cast<double>(op_cost.count()) / 1e3);
  std::printf("  %8s", "threads");
  for (const unsigned shards : {1u, 2u, 4u, 8u, 16u}) {
    std::printf("  shards=%-2u", shards);
  }
  std::printf("   (Mops/s)\n");

  std::vector<Cell> cells;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::printf("  %8u", threads);
    for (const unsigned shards : {1u, 2u, 4u, 8u, 16u}) {
      Cell cell;
      cell.shards = shards;
      cell.threads = threads;
      cell.mops = run_cell(shards, threads, op_cost, ops_per_thread);
      cells.push_back(cell);
      std::printf("  %9.3f", cell.mops);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n");
  return cells;
}

double cell_mops(const std::vector<Cell>& cells, unsigned shards,
                 unsigned threads) {
  for (const Cell& c : cells) {
    if (c.shards == shards && c.threads == threads) return c.mops;
  }
  return 0.0;
}

void append_cells(std::string& json, const std::vector<Cell>& cells) {
  json += "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) json += ",";
    json += "{\"shards\":" + std::to_string(cells[i].shards) +
            ",\"threads\":" + std::to_string(cells[i].threads) + ",\"mops\":" +
            std::to_string(cells[i].mops) + "}";
  }
  json += "]";
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner("Ablation: store shards x worker threads");

  const bool smoke = bench::smoke();
  const std::uint64_t modelled_ops = smoke ? 24 : 500;
  const std::uint64_t cpu_ops = smoke ? 200 : 50000;
  const sim::Nanos op_cost = sim::us(20);

  const auto modelled =
      run_sweep("sweep: modelled under-lock cost", op_cost, modelled_ops);
  const auto cpu_bound =
      run_sweep("sweep: cpu-bound (cost=0; flat on single-core hosts)",
                sim::Nanos{0}, cpu_ops);

  // Facade tax: the pre-PR manager vs the facade at shards=1, one thread.
  // Alternated best-of-3 so scheduler noise hits both sides equally.
  auto timed_mix = [cpu_ops](auto& manager) {
    {
      sim::ScopedTimeScale preload_scale(0.0);
      for (std::size_t i = 0; i < kKeys; ++i) {
        (void)manager.store(make_key(i), make_value(i, kValueBytes), 0, 0);
      }
    }
    std::vector<char> out;
    std::uint32_t flags = 0;
    std::uint64_t x = mix64(0xABCD);
    const auto start = sim::now();
    for (std::uint64_t op = 0; op < cpu_ops; ++op) {
      x = mix64(x + op);
      const std::string key = make_key(x % kKeys);
      if (x & 1) {
        (void)manager.store(key, make_value(x % kKeys, kValueBytes), 0, 0);
      } else {
        (void)manager.get(key, out, flags);
      }
    }
    const double seconds =
        static_cast<double>((sim::now() - start).count()) / 1e9;
    return static_cast<double>(cpu_ops) / seconds / 1e6;
  };
  double raw_mops = 0.0;
  double facade_mops = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    {
      store::HybridSlabManager manager(store_config(1, sim::Nanos{0}), nullptr);
      raw_mops = std::max(raw_mops, timed_mix(manager));
    }
    {
      store::ShardedManager manager(store_config(1, sim::Nanos{0}), nullptr);
      facade_mops = std::max(facade_mops, timed_mix(manager));
    }
  }
  std::printf("facade tax: raw manager %.3f Mops/s vs ShardedManager(1) %.3f "
              "Mops/s (%+.1f%%)\n",
              raw_mops, facade_mops,
              100.0 * (facade_mops - raw_mops) / raw_mops);

  const double base = cell_mops(modelled, 1, 8);
  const double best = cell_mops(modelled, 16, 8);
  std::printf("headline: 8 threads, 16 shards vs 1 shard (modelled): %.3f vs "
              "%.3f Mops/s = %.2fx\n\n",
              best, base, best / base);

  std::string json = "{\"bench\":\"shard_scaling\",\"modelled_op_cost_us\":" +
                     std::to_string(op_cost.count() / 1000) +
                     ",\"smoke\":" + (smoke ? std::string("true") : "false") +
                     ",\"modelled\":";
  append_cells(json, modelled);
  json += ",\"cpu_bound\":";
  append_cells(json, cpu_bound);
  json += ",\"facade\":{\"raw_mops\":" + std::to_string(raw_mops) +
          ",\"sharded1_mops\":" + std::to_string(facade_mops) + "}";
  json += ",\"headline_speedup\":" + std::to_string(best / base) + "}\n";

  bench::write_bench_json("BENCH_shard_scaling.json", json);
  return 0;
}
