// Central registry of every modelled hardware parameter in hykv.
//
// All simulated costs -- interconnect, SSD, page cache, backend database --
// are derived from the structs below and realised via sim::advance(). Keeping
// them in one header makes the reproduction auditable: every bench prints the
// profile it ran with, and EXPERIMENTS.md cites these numbers when comparing
// shapes against the paper.
//
// Sources for the defaults:
//  - FDR InfiniBand (56 Gbps, Mellanox ConnectX-3): ~1.2us one-way small
//    message latency, ~6 GB/s effective large-message bandwidth.
//  - IPoIB on the same HCA: kernel TCP stack adds ~15us per side and caps
//    effective bandwidth near 1.8 GB/s (paper's Comet numbers class).
//  - SATA SSD (Comet local 320GB): ~100us access, ~0.5 GB/s.
//  - Intel P3700 NVMe: ~20us access, read ~2.8 GB/s / write ~1.9 GB/s.
//  - Backend database miss penalty: the paper assumes < 2 ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/sim_time.hpp"

namespace hykv {

/// Interconnect model. A message of `size` bytes costs
///   base_latency + size / bandwidth + per_segment * ceil(size / segment).
struct FabricProfile {
  std::string name;
  sim::Nanos base_latency;        ///< One-way propagation + NIC processing.
  double bytes_per_us;            ///< Effective payload bandwidth.
  sim::Nanos per_segment;         ///< Kernel/stack cost per segment (IPoIB).
  std::size_t segment_bytes;      ///< Segmentation unit for per_segment.
  sim::Nanos doorbell;            ///< Cost of posting a work request.
  sim::Nanos registration_base;   ///< ibv_reg_mr fixed cost.
  sim::Nanos registration_per_mb; ///< ibv_reg_mr per-MB pinning cost.
  sim::Nanos registration_cached; ///< Registration-cache hit cost.

  /// Pure wire time of `size` payload bytes (excludes doorbell).
  [[nodiscard]] sim::Nanos transfer_time(std::size_t size) const noexcept {
    const auto segs = segment_bytes == 0
                          ? 0
                          : (size + segment_bytes - 1) / segment_bytes;
    const auto wire = static_cast<std::int64_t>(
        static_cast<double>(size) / bytes_per_us * 1000.0);
    return base_latency + sim::Nanos{wire} +
           per_segment * static_cast<std::int64_t>(segs);
  }

  [[nodiscard]] sim::Nanos registration_time(std::size_t size) const noexcept {
    return registration_base +
           sim::Nanos{registration_per_mb.count() *
                      static_cast<std::int64_t>(size) / (1 << 20)};
  }

  /// 56 Gbps FDR InfiniBand with native verbs.
  static FabricProfile fdr_rdma();
  /// TCP/IP over the same FDR HCA ("IPoIB").
  static FabricProfile ipoib();
};

/// Block-device model. An access of `size` bytes at queue depth 1 costs
/// access_base + size / bandwidth. Queue pressure is modelled by the device
/// serialising channel-sharing accesses (see SsdDevice).
struct SsdProfile {
  std::string name;
  sim::Nanos read_base;
  sim::Nanos write_base;
  double read_bytes_per_us;
  double write_bytes_per_us;
  std::size_t capacity_bytes;
  unsigned channels;  ///< Parallel internal channels (NVMe >> SATA).
  /// Flush/FUA barrier paid by synchronous direct writes (O_DIRECT|O_SYNC):
  /// forces the device to commit past its volatile write buffer. Large on
  /// SATA-era drives, small on NVMe. Asynchronous write-back does not pay it.
  sim::Nanos sync_barrier{0};

  [[nodiscard]] sim::Nanos read_time(std::size_t size) const noexcept {
    return read_base + sim::Nanos{static_cast<std::int64_t>(
                           static_cast<double>(size) / read_bytes_per_us * 1000.0)};
  }
  [[nodiscard]] sim::Nanos write_time(std::size_t size) const noexcept {
    return write_base + sim::Nanos{static_cast<std::int64_t>(
                            static_cast<double>(size) / write_bytes_per_us * 1000.0)};
  }

  static SsdProfile sata();
  static SsdProfile nvme();
};

/// Host memory-path model used by the page-cache and mmap I/O engines.
struct HostIoProfile {
  double memcpy_bytes_per_us = 8400.0;  ///< ~8.4 GB/s single-stream copy.
  sim::Nanos syscall_overhead = sim::Nanos{4000};   ///< write()/read() entry.
  sim::Nanos page_touch = sim::Nanos{350};          ///< mmap fault+TLB per 4K page.
  sim::Nanos mmap_setup = sim::Nanos{2000};         ///< amortised mmap/msync admin.
  std::size_t page_bytes = 4096;

  [[nodiscard]] sim::Nanos copy_time(std::size_t size) const noexcept {
    return sim::Nanos{static_cast<std::int64_t>(
        static_cast<double>(size) / memcpy_bytes_per_us * 1000.0)};
  }
  [[nodiscard]] std::size_t pages(std::size_t size) const noexcept {
    return (size + page_bytes - 1) / page_bytes;
  }
};

/// The backend store behind the caching tier (database / parallel FS). The
/// paper models it as a sub-2ms penalty per miss; we default to 1.8ms plus a
/// small size-dependent term.
struct BackendDbProfile {
  sim::Nanos access_penalty = sim::ms(1) + sim::us(800);
  double bytes_per_us = 1000.0;  ///< ~1 GB/s streaming from the backend.

  [[nodiscard]] sim::Nanos access_time(std::size_t size) const noexcept {
    return access_penalty + sim::Nanos{static_cast<std::int64_t>(
                                static_cast<double>(size) / bytes_per_us * 1000.0)};
  }
};

}  // namespace hykv
