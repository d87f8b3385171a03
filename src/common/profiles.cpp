#include "common/profiles.hpp"

namespace hykv {

FabricProfile FabricProfile::fdr_rdma() {
  return FabricProfile{
      .name = "RDMA-FDR56",
      .base_latency = sim::Nanos{1200},
      .bytes_per_us = 6000.0,  // ~6 GB/s effective
      .per_segment = sim::Nanos{0},
      .segment_bytes = 0,
      .doorbell = sim::Nanos{300},
      .registration_base = sim::us(25),
      .registration_per_mb = sim::us(40),
      .registration_cached = sim::Nanos{200},
  };
}

FabricProfile FabricProfile::ipoib() {
  return FabricProfile{
      .name = "IPoIB-FDR56",
      .base_latency = sim::us(15),
      .bytes_per_us = 1800.0,  // ~1.8 GB/s effective through the TCP stack
      .per_segment = sim::us(2),
      .segment_bytes = 64 * 1024,
      .doorbell = sim::us(3),  // syscall-grade send cost
      // Registration is a no-op concept on TCP; model the socket buffer copy
      // costs as zero here (they are folded into per_segment/doorbell).
      .registration_base = sim::Nanos{0},
      .registration_per_mb = sim::Nanos{0},
      .registration_cached = sim::Nanos{0},
  };
}

SsdProfile SsdProfile::sata() {
  return SsdProfile{
      .name = "SATA-SSD",
      .read_base = sim::us(110),
      .write_base = sim::us(90),
      .read_bytes_per_us = 520.0,   // ~0.5 GB/s
      .write_bytes_per_us = 470.0,  // ~0.45 GB/s
      .capacity_bytes = std::size_t{320} << 30,
      .channels = 1,
      .sync_barrier = sim::ms(1) + sim::us(500),
  };
}

SsdProfile SsdProfile::nvme() {
  return SsdProfile{
      .name = "NVMe-P3700",
      .read_base = sim::us(20),
      .write_base = sim::us(20),
      .read_bytes_per_us = 2900.0,  // ~2.8 GB/s
      .write_bytes_per_us = 2000.0, // ~1.9 GB/s
      .capacity_bytes = std::size_t{400} << 30,
      .channels = 4,
      .sync_barrier = sim::us(100),
  };
}

}  // namespace hykv
