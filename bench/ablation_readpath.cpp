// Ablation: optimistic (lock-free seqlock) GETs vs the strictly-locked read
// path on ONE contended shard.
//
// After the sharding PR, GETs on a shard still serialise against every other
// op of that shard -- readers included. The non-blocking read path lets
// RAM-resident GETs run without the shard lock (seqlock validation + EBR
// reclamation), so on a GET-dominant mix only the writes still queue on the
// mutex. This sweep measures exactly that: reader threads x read fraction x
// optimistic on/off, on a single shard so the contention is maximal.
//
// Methodology mirrors ablation_shards.cpp: each op carries
// ManagerConfig::modelled_op_cost of per-op CPU time realised as modelled
// time (sleep on the real clock, like every fabric/SSD cost here). The
// locked design pays it while *holding* the shard mutex; the optimistic
// design pays it before touching any lock -- which is precisely the
// difference being measured, reproducible on any host including single-core
// CI boxes where raw mutex contention is invisible. The headline >=2x GET
// criterion (8 readers, 100% GET, on vs off) is read off this sweep.
//
// Emits BENCH_readpath.json next to the binary for tooling.
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

constexpr std::size_t kKeys = 2048;
constexpr std::size_t kValueBytes = 256;

struct Cell {
  unsigned threads = 1;
  unsigned read_pct = 100;
  bool optimistic = false;
  double mops = 0.0;
  std::uint64_t optimistic_hits = 0;
  std::uint64_t optimistic_retries = 0;
  std::uint64_t locked_fallbacks = 0;
};

store::ManagerConfig store_config(bool optimistic, sim::Nanos op_cost) {
  store::ManagerConfig cfg;
  cfg.mode = store::StorageMode::kInMemory;
  cfg.shards = 1;  // one shard: worst-case lock contention
  cfg.slab.slab_bytes = std::size_t{1} << 20;
  cfg.slab.memory_limit = std::size_t{16} << 20;  // keyspace RAM-resident
  cfg.modelled_op_cost = op_cost;
  cfg.optimistic_reads = optimistic;
  return cfg;
}

double run_cell(Cell& cell, sim::Nanos op_cost, std::uint64_t ops_per_thread) {
  store::ShardedManager manager(store_config(cell.optimistic, op_cost),
                                nullptr);
  {
    // Preload outside modelled time (the established preload idiom).
    sim::ScopedTimeScale preload_scale(0.0);
    for (std::size_t i = 0; i < kKeys; ++i) {
      (void)manager.store(make_key(i), make_value(i, kValueBytes), 0, 0);
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(cell.threads);
  const auto start = sim::now();
  for (unsigned t = 0; t < cell.threads; ++t) {
    workers.emplace_back([&manager, &cell, t, ops_per_thread] {
      std::vector<char> out;
      std::uint32_t flags = 0;
      std::uint64_t x = mix64(0xBEEF + t);
      for (std::uint64_t op = 0; op < ops_per_thread; ++op) {
        x = mix64(x + op);
        const std::string key = make_key(x % kKeys);
        if ((x >> 8) % 100 < cell.read_pct) {
          (void)manager.get(key, out, flags);
        } else {
          (void)manager.store(key, make_value(x % kKeys, kValueBytes), 0, 0);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double seconds =
      static_cast<double>((sim::now() - start).count()) / 1e9;
  const auto stats = manager.stats();
  cell.optimistic_hits = stats.optimistic_hits;
  cell.optimistic_retries = stats.optimistic_retries;
  cell.locked_fallbacks = stats.locked_fallbacks;
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(cell.threads);
  return total_ops / seconds / 1e6;
}

void append_cells(std::string& json, const std::vector<Cell>& cells) {
  json += "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (i != 0) json += ",";
    json += "{\"threads\":" + std::to_string(c.threads) +
            ",\"read_pct\":" + std::to_string(c.read_pct) +
            ",\"optimistic\":" + (c.optimistic ? "true" : "false") +
            ",\"mops\":" + std::to_string(c.mops) +
            ",\"optimistic_hits\":" + std::to_string(c.optimistic_hits) +
            ",\"optimistic_retries\":" + std::to_string(c.optimistic_retries) +
            ",\"locked_fallbacks\":" + std::to_string(c.locked_fallbacks) + "}";
  }
  json += "]";
}

double cell_mops(const std::vector<Cell>& cells, unsigned threads,
                 unsigned read_pct, bool optimistic) {
  for (const Cell& c : cells) {
    if (c.threads == threads && c.read_pct == read_pct &&
        c.optimistic == optimistic) {
      return c.mops;
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner(
      "Ablation: optimistic vs locked read path (1 contended shard)");

  const bool smoke = bench::smoke();
  const std::uint64_t ops_per_thread = smoke ? 24 : 400;
  const sim::Nanos op_cost = sim::us(20);

  std::printf("sweep: reader threads x read%% x optimistic on/off "
              "(ops/thread=%llu, modelled op cost=%.0fus)\n",
              static_cast<unsigned long long>(ops_per_thread),
              static_cast<double>(op_cost.count()) / 1e3);
  std::printf("  %8s %6s  %-12s %-12s %8s\n", "threads", "read%", "locked",
              "optimistic", "speedup");

  std::vector<Cell> cells;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const unsigned read_pct : {100u, 99u, 95u}) {
      double mops_by_mode[2] = {0.0, 0.0};
      for (const bool optimistic : {false, true}) {
        Cell cell;
        cell.threads = threads;
        cell.read_pct = read_pct;
        cell.optimistic = optimistic;
        cell.mops = run_cell(cell, op_cost, ops_per_thread);
        mops_by_mode[optimistic ? 1 : 0] = cell.mops;
        cells.push_back(cell);
      }
      std::printf("  %8u %6u  %-12.3f %-12.3f %7.2fx\n", threads, read_pct,
                  mops_by_mode[0], mops_by_mode[1],
                  mops_by_mode[1] / mops_by_mode[0]);
      std::fflush(stdout);
    }
  }

  const double locked = cell_mops(cells, 8, 100, false);
  const double optimistic = cell_mops(cells, 8, 100, true);
  const double headline = optimistic / locked;
  std::printf("\nheadline: 8 reader threads, 100%% GET, one shard: "
              "%.3f vs %.3f Mops/s = %.2fx (criterion: >=2x)\n\n",
              optimistic, locked, headline);

  std::string json = "{\"bench\":\"readpath\",\"modelled_op_cost_us\":" +
                     std::to_string(op_cost.count() / 1000) +
                     ",\"smoke\":" + (smoke ? std::string("true") : "false") +
                     ",\"cells\":";
  append_cells(json, cells);
  json += ",\"headline_speedup\":" + std::to_string(headline) + "}\n";

  bench::write_bench_json("BENCH_readpath.json", json);
  return 0;
}
