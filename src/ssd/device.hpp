// Simulated block device (SATA / NVMe SSD).
//
// The device stores real bytes (so every Get served from "flash" returns the
// exact payload that was evicted) behind the SsdProfile latency model.
// Accesses serialise on internal channels: an op acquires a channel for the
// modelled device time, so concurrent requests experience realistic queueing
// -- the effect behind the paper's "busy hybrid Memcached server" bottleneck.
//
// The unit of allocation is an *extent* (the hybrid slab manager allocates
// one extent per flushed slab or item run) addressed by (ExtentId, offset).
// The simulator keeps an extent's bytes as fixed-size segments so that
// discard() can hand back the memory of dead records before the whole
// extent is freed; capacity accounting and modelled costs stay per extent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "common/mutex.hpp"
#include "common/profiles.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace hykv::ssd {

using ExtentId = std::uint64_t;
constexpr ExtentId kInvalidExtent = 0;

/// Deterministic transient-error injection for the device: each modelled
/// write()/read() draws from a seeded hash chain and fails with kIoError at
/// `error_rate`. Identical seeds reproduce identical error schedules
/// regardless of wall-clock timing (chaos tests rely on this).
struct SsdFaultProfile {
  double error_rate = 0.0;  ///< Probability an access fails with kIoError.
  std::uint64_t seed = 1;
  [[nodiscard]] bool enabled() const noexcept { return error_rate > 0.0; }
};

/// Cumulative device counters (for benches and tests).
#define HYKV_DEVICE_STATS_FIELDS(X)                                     \
  X(std::uint64_t, reads)                                               \
  X(std::uint64_t, writes)                                              \
  X(std::uint64_t, read_bytes)                                          \
  X(std::uint64_t, written_bytes)                                       \
  X(std::uint64_t, busy_ns) /* total modelled channel-occupancy time */ \
  X(std::uint64_t, io_errors) /* injected/forced access failures */     \
  X(std::uint64_t, trimmed_bytes) /* segment bytes freed by discard() */

struct DeviceStats {
  HYKV_COUNTER_FIELDS(DeviceStats, HYKV_DEVICE_STATS_FIELDS)
};

/// One storage access's status and the modelled ns it charged on the calling
/// thread: host copy, syscall, page-touch and map-setup costs plus device
/// occupancy, without channel queueing or write-back throttling.
struct IoResult {
  StatusCode status = StatusCode::kOk;
  sim::Nanos charged{0};
};

/// Granularity at which the simulator stores, and discard() frees, an
/// extent's bytes. Host memory only: the device model never sees it.
constexpr std::size_t kSegmentBytes = std::size_t{64} << 10;

class SsdDevice {
 public:
  explicit SsdDevice(SsdProfile profile);

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  /// Reserves an extent of `size` bytes. Fails with kOutOfMemory when the
  /// modelled capacity is exhausted. Allocation itself is a metadata op and
  /// carries no device latency (FTL allocation is asynchronous in practice).
  Result<ExtentId> allocate(std::size_t size);

  /// Releases an extent (TRIM). No modelled latency.
  void free(ExtentId id);

  /// Marks [offset, offset + len) of the extent dead and frees every
  /// segment whose bytes are all dead. Callers discard each byte at most
  /// once. A later write into a freed segment stores nothing there; a read
  /// that touches one fails with kInvalidArgument. Capacity (used_bytes)
  /// and modelled costs are unchanged: this is simulator memory only.
  void discard(ExtentId id, std::size_t offset, std::size_t len);

  /// Writes `data` at `offset` within the extent, paying full device write
  /// latency for data.size() bytes (direct-I/O semantics).
  IoResult write(ExtentId id, std::size_t offset, std::span<const char> data);

  /// Reads `out.size()` bytes at `offset`, paying full device read latency.
  IoResult read(ExtentId id, std::size_t offset, std::span<char> out);

  /// Data movement without modelled latency -- used by the page cache, which
  /// models its own host-side costs and pays device latency at write-back.
  /// Discarded segments behave as for write()/read() (see discard()).
  StatusCode write_raw(ExtentId id, std::size_t offset, std::span<const char> data);
  StatusCode read_raw(ExtentId id, std::size_t offset, std::span<char> out);

  /// Occupies a device channel for the modelled duration of a `bytes`-sized
  /// access without touching data (used for write-back of already-copied
  /// buffers and for queueing-only accounting). Returns the modelled time.
  sim::Nanos occupy_write(std::size_t bytes);
  sim::Nanos occupy_read(std::size_t bytes);

  /// Installs (or clears, with a zero-rate profile) transient-error
  /// injection. The modelled write()/read() paths draw implicitly; the raw
  /// paths model host-side page-cache copies and stay reliable -- the page
  /// cache instead calls check_fault() at its genuine device-touch points.
  void set_fault_profile(SsdFaultProfile faults);

  /// Draws the next transient-fault verdict without moving data: kIoError
  /// when this device access should fail (counted in io_errors), kOk
  /// otherwise. Free when no faults are armed.
  [[nodiscard]] StatusCode check_fault();

  /// Hard outage toggle: while failed, every modelled access returns
  /// kIoError. Models a device drop-off / controller reset window.
  void set_failed(bool failed);
  [[nodiscard]] bool failed() const;

  [[nodiscard]] const SsdProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] std::size_t used_bytes() const;
  [[nodiscard]] std::size_t extent_size(ExtentId id) const;
  [[nodiscard]] DeviceStats stats() const;
  void reset_stats();

 private:
  void occupy(sim::Nanos cost) EXCLUDES(meta_mu_);
  /// True when this access should fail; bumps the io_errors counter.
  [[nodiscard]] bool inject_error() EXCLUDES(meta_mu_);

  /// An extent's bytes: segment i holds [i * kSegmentBytes, ...), null once
  /// discarded; dead[i] counts its discarded bytes.
  struct Extent {
    std::size_t size = 0;
    std::vector<std::unique_ptr<char[]>> segments;
    std::vector<std::uint32_t> dead;
  };

  SsdProfile profile_;
  mutable Mutex meta_mu_;
  std::unordered_map<ExtentId, Extent> extents_ GUARDED_BY(meta_mu_);
  ExtentId next_id_ GUARDED_BY(meta_mu_) = 1;
  std::size_t used_bytes_ GUARDED_BY(meta_mu_) = 0;
  DeviceStats stats_ GUARDED_BY(meta_mu_);
  SsdFaultProfile faults_ GUARDED_BY(meta_mu_);
  std::uint64_t fault_seq_ GUARDED_BY(meta_mu_) = 0;  ///< Per-access ordinal.
  bool failed_ GUARDED_BY(meta_mu_) = false;
  /// Lock-free gate: true iff failed_ or faults_ is enabled. Lets the
  /// fault-free data path skip meta_mu_ entirely (zero happy-path overhead).
  std::atomic<bool> fault_armed_ ATOMIC_PUBLISHED(relaxed gate){false};

  // Channel serialisation: ops round-robin over channels; each channel admits
  // one modelled access at a time. The channel mutexes guard no data -- they
  // model occupancy -- so nothing is GUARDED_BY them.
  std::vector<std::unique_ptr<Mutex>> channels_;
  std::atomic<std::uint64_t> channel_cursor_
      ATOMIC_PUBLISHED(relaxed round-robin cursor){0};
};

}  // namespace hykv::ssd
