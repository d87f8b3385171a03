// Figure 4: cost of flushing evicted data to the SSD under the three
// synchronous I/O schemes (direct, cached, mmap) across data sizes.
//
// Paper shape to reproduce: mmap wins for small sizes, cached I/O wins for
// large sizes, direct I/O is the most expensive everywhere -- the crossover
// is what the adaptive slab allocator (Fig. 5) exploits.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "ssd/io_engine.hpp"

using namespace hykv;

namespace {

// The modelled cost each write charges (ssd::IoResult::charged), not the
// wall clock: host scheduling noise would otherwise flip the small-size
// winners from run to run.
double mean_write_us(ssd::StorageStack& stack, ssd::IoScheme scheme,
                     std::size_t size, int iters) {
  const auto payload = workload::dataset_value(size, size);
  sim::Nanos total{0};
  for (int i = 0; i < iters; ++i) {
    const auto id = stack.device().allocate(size).value();
    total += stack.write(scheme, id, 0, payload).charged;
  }
  return static_cast<double>(total.count()) / iters / 1e3;
}

}  // namespace

int main() {
  sim::init_precise_timing();
  bench::print_banner("Figure 4: synchronous evict-to-SSD cost by I/O scheme");

  ssd::PageCacheConfig cache;
  cache.dirty_high_watermark = 64 << 20;
  cache.dirty_low_watermark = 32 << 20;
  cache.memory_limit = 256 << 20;

  for (const auto& profile : {SsdProfile::sata(), SsdProfile::nvme()}) {
    ssd::StorageStack stack(profile, cache);
    std::printf("%s   [modelled us per write]\n", profile.name.c_str());
    std::printf("  %10s %12s %12s %12s %10s\n", "size", "direct", "cached",
                "mmap", "winner");
    for (const std::size_t size :
         {std::size_t{1} << 10, std::size_t{4} << 10, std::size_t{16} << 10,
          std::size_t{64} << 10, std::size_t{256} << 10, std::size_t{1} << 20}) {
      const double direct = mean_write_us(stack, ssd::IoScheme::kDirect, size, 5);
      const double cached = mean_write_us(stack, ssd::IoScheme::kCached, size, 5);
      const double mmap = mean_write_us(stack, ssd::IoScheme::kMmap, size, 5);
      const char* winner = mmap <= cached && mmap <= direct ? "mmap"
                           : cached <= direct               ? "cached"
                                                            : "direct";
      std::printf("  %9zuK %12.1f %12.1f %12.1f %10s\n", size >> 10, direct,
                  cached, mmap, winner);
      stack.cache().sync();  // drain write-back between rows
    }
    std::printf("\n");
  }
  std::printf(
      "adaptive policy: slab classes <= 64K flush via mmap, larger via "
      "cached I/O.\n");
  return 0;
}
