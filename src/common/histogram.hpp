// Latency recording: an HDR-style log-linear histogram (cheap to record,
// mergeable across threads, percentile queries) used by the benchmark
// harness and the server's per-stage instrumentation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hykv {

/// Log-linear histogram over nanosecond durations.
/// Buckets: 64 power-of-two major buckets x 32 linear sub-buckets, covering
/// [1ns, ~580 years] with <= 3.2% relative error -- plenty for latency work.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr std::size_t kBucketCount = 64 * kSubBuckets;

  /// Bucket a value lands in (saturates at kBucketCount - 1) and the largest
  /// value a bucket covers. Public so external recorders (metrics.hpp keeps
  /// per-thread atomic bucket arrays) can share the exact same layout.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ns) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

  LatencyHistogram() = default;

  void record(std::chrono::nanoseconds value) noexcept {
    record_ns(static_cast<std::uint64_t>(
        value.count() < 0 ? 0 : value.count()));
  }
  void record_ns(std::uint64_t ns) noexcept;

  void merge(const LatencyHistogram& other) noexcept;
  /// Merges raw bucket counts captured elsewhere with this exact layout
  /// (bucket_index). `min`/`max` are ignored when `count` is 0. Used to fold
  /// a snapshot of an atomic per-thread histogram into a plain one.
  void merge_counts(std::span<const std::uint64_t> buckets, std::uint64_t count,
                    std::uint64_t sum, std::uint64_t min,
                    std::uint64_t max) noexcept;
  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum_ns() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min_ns() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max_ns() const noexcept { return max_; }
  [[nodiscard]] double mean_ns() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at percentile p in [0, 100]. Returns an upper bound of the bucket
  /// containing the requested rank.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const noexcept;

  [[nodiscard]] double mean_us() const noexcept { return mean_ns() / 1e3; }
  [[nodiscard]] double p50_us() const noexcept { return static_cast<double>(percentile_ns(50)) / 1e3; }
  [[nodiscard]] double p99_us() const noexcept { return static_cast<double>(percentile_ns(99)) / 1e3; }

  /// "mean=12.3us p50=11us p99=40us n=1000" -- for bench table cells.
  [[nodiscard]] std::string summary() const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

/// Simple running tally for throughput-style counters.
struct OpCounter {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  void add(std::uint64_t op_bytes) noexcept {
    ++ops;
    bytes += op_bytes;
  }
};

}  // namespace hykv
