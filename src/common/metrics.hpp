// Runtime latency observability (DESIGN.md §10).
//
// Two pieces, both fixed-memory and lock-free on the hot path:
//
//  * LatencyRecorder -- per-thread cache-line-aligned slots of atomic
//    log-linear histograms (same layout as LatencyHistogram, same slot
//    pattern as the server's per-worker counters). Writers touch only their
//    own slot with relaxed atomics; readers merge all slots on demand into a
//    plain LatencyHistogram. Recording costs a handful of relaxed RMWs --
//    cheap enough to leave on by default (bench/ablation_obs_overhead.cpp).
//
//  * OpTracer -- a sampled per-request stage-timeline capture. Every request
//    bumps one relaxed counter; every 2^shift-th request additionally gets a
//    Trace (op class, status, per-span offsets/durations) pushed into a
//    per-thread ring buffer behind a mutex. Sampling keeps the locked path
//    off all but 1-in-2^shift requests; shift 0 disables tracing entirely.
//
// Both are keyed by the process-wide thread_token(): a small dense id
// assigned to each thread on first use and folded modulo the slot count.
// With more threads than slots two threads may share a slot; the atomics
// (and the ring mutex) make that safe, merely less cache-friendly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/mutex.hpp"
#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"

namespace hykv::metrics {

/// Op classes of the end-to-end latency histograms. Coarser than opcodes:
/// every mutating opcode (set/add/replace/append/prepend/incr/decr/cas) is a
/// kSet, mirroring how the ServerCounters fold opcodes into per-op counters
/// so `stats latency` counts balance against `stats` counts.
enum class Op : std::uint8_t { kSet = 0, kGet, kDelete, kTouch, kAdmin, kOther };
constexpr std::size_t kOpCount = 6;

[[nodiscard]] constexpr std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::kSet: return "set";
    case Op::kGet: return "get";
    case Op::kDelete: return "delete";
    case Op::kTouch: return "touch";
    case Op::kAdmin: return "admin";
    case Op::kOther: return "other";
  }
  return "other";
}

/// Stages of a request's life that get their own span histogram. A request
/// contributes to a span's histogram only when it actually passes through
/// that stage (e.g. kAdmissionWait exists only on async servers,
/// kOptimisticRead and kLockedRead partition GETs by which read path served
/// them), so span counts do NOT sum to the op counts.
///
/// kSlabAllocation..kMissPenalty plus kResponse are the paper's six
/// Section III-A stages (Fig. 2/6); DESIGN.md §10 maps each to its span and
/// per-op denominator. kClientWait and kMissPenalty are recorded by clients
/// only. New spans are appended: the `stats latency` row order is frozen.
enum class Span : std::uint8_t {
  kFabricTransfer = 0,  ///< send posted -> delivered (wire + propagation)
  kAdmissionWait,       ///< async only: buffered-queue enqueue -> dequeue
  kStorePhase,          ///< opcode dispatch incl. the store call
  kOptimisticRead,      ///< GET served by the seqlock path (no shard lock)
  kLockedRead,          ///< GET that took the shard lock (incl. fallbacks)
  kSsdFlush,            ///< one flush_batch attempt (staging + SSD write)
  kResponse,            ///< response encode + send doorbell
  kSlabAllocation,      ///< chunk allocation incl. any flush/eviction it runs
  kCacheCheckLoad,      ///< locked lookup + (hybrid) SSD read of the item
  kCacheUpdate,         ///< item write, index and LRU update / promotion
  kClientWait,          ///< client: blocked in wait()/wait_for()
  kMissPenalty,         ///< client: backend fetch after a cache miss
};
constexpr std::size_t kSpanCount = 12;

[[nodiscard]] constexpr std::string_view to_string(Span span) noexcept {
  switch (span) {
    case Span::kFabricTransfer: return "fabric_transfer";
    case Span::kAdmissionWait: return "admission_wait";
    case Span::kStorePhase: return "store_phase";
    case Span::kOptimisticRead: return "optimistic_read";
    case Span::kLockedRead: return "locked_read";
    case Span::kSsdFlush: return "ssd_flush";
    case Span::kResponse: return "response";
    case Span::kSlabAllocation: return "slab_allocation";
    case Span::kCacheCheckLoad: return "cache_check_load";
    case Span::kCacheUpdate: return "cache_update";
    case Span::kClientWait: return "client_wait";
    case Span::kMissPenalty: return "miss_penalty";
  }
  return "other";
}

/// Small dense process-wide id for the calling thread (first use assigns the
/// next integer). Recorders fold it modulo their slot count.
[[nodiscard]] std::uint32_t thread_token() noexcept;

/// Nanosecond delta clamped at zero (recorders take unsigned ns).
[[nodiscard]] inline std::uint64_t delta_ns(sim::TimePoint from,
                                            sim::TimePoint to) noexcept {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d < 0 ? 0 : static_cast<std::uint64_t>(d);
}

/// Mean microseconds per op of a span: its summed time over `ops` (0 when
/// there were none). The paper's per-op stage times are derived this way.
[[nodiscard]] inline double per_op_us(std::uint64_t sum_ns,
                                      std::uint64_t ops) noexcept {
  return ops == 0 ? 0.0
                  : static_cast<double>(sum_ns) / static_cast<double>(ops) / 1e3;
}

/// LatencyHistogram's bucket layout with every cell atomic. Safe for any
/// number of concurrent writers (slot sharing) and concurrent snapshots;
/// a snapshot taken mid-record may be off by in-flight samples, exact once
/// the writers quiesce.
class AtomicHistogram {
 public:
  void record(std::uint64_t ns) noexcept;
  /// Folds a relaxed snapshot of this histogram into `out`.
  void merge_into(LatencyHistogram& out) const noexcept;
  void reset() noexcept;

 private:
  // All-atomic by design (lock-free hot path, relaxed order; snapshots are
  // merely eventually exact) -- see the class comment.
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBucketCount>
      buckets_ ATOMIC_PUBLISHED(relaxed histogram cells){};
  std::atomic<std::uint64_t> count_ ATOMIC_PUBLISHED(relaxed counter){0};
  std::atomic<std::uint64_t> sum_ ATOMIC_PUBLISHED(relaxed counter){0};
  std::atomic<std::uint64_t> min_ ATOMIC_PUBLISHED(CAS loop){UINT64_MAX};
  std::atomic<std::uint64_t> max_ ATOMIC_PUBLISHED(CAS loop){0};
};

/// Fixed-memory latency recorder: `slots` cache-line-aligned groups of
/// (kOpCount op + kSpanCount span) atomic histograms. Memory is allocated
/// once in the constructor and never grows (~290 KiB per slot); see
/// DESIGN.md §10 for the sizing math.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t slots = 16);

  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  void record_op(Op op, std::uint64_t ns) noexcept;
  void record_span(Span span, std::uint64_t ns) noexcept;

  /// Merged view across all slots (see AtomicHistogram::merge_into for the
  /// concurrent-snapshot caveat).
  [[nodiscard]] LatencyHistogram op_histogram(Op op) const;
  [[nodiscard]] LatencyHistogram span_histogram(Span span) const;

  void reset() noexcept;
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    std::array<AtomicHistogram, kOpCount> ops;
    std::array<AtomicHistogram, kSpanCount> spans;
  };
  [[nodiscard]] Slot& local_slot() noexcept;

  std::vector<Slot> slots_;
};

/// Span timing against an optional recorder (nullptr = recording off, and
/// then not even a clock read): span_start() stamps the start and
/// record_since() records `span` as start -> now.
[[nodiscard]] inline sim::TimePoint span_start(
    const LatencyRecorder* recorder) noexcept {
  return recorder != nullptr ? sim::now() : sim::TimePoint{};
}
inline void record_since(LatencyRecorder* recorder, Span span,
                         sim::TimePoint start) noexcept {
  if (recorder != nullptr) {
    recorder->record_span(span, delta_ns(start, sim::now()));
  }
}

/// One traced request: where its time went, stage by stage. Offsets are
/// relative to `start_ns` (the earliest timestamp known for the request --
/// the fabric send post when available, else server receipt).
struct TraceSpan {
  Span span = Span::kFabricTransfer;
  std::uint64_t offset_ns = 0;
  std::uint64_t duration_ns = 0;
};

struct Trace {
  static constexpr std::size_t kMaxSpans = 8;
  std::uint64_t seq = 0;       ///< global request sequence number
  Op op = Op::kOther;
  std::uint8_t status = 0;     ///< StatusCode of the response
  std::uint64_t start_ns = 0;  ///< steady-clock ns of the request's start
  std::uint64_t total_ns = 0;  ///< start -> response sent
  std::array<TraceSpan, kMaxSpans> spans{};
  std::uint32_t span_count = 0;

  /// Appends a span; silently drops past kMaxSpans (bounded by design).
  void add_span(Span span, std::uint64_t offset_ns,
                std::uint64_t duration_ns) noexcept {
    if (span_count >= kMaxSpans) return;
    spans[span_count++] = TraceSpan{span, offset_ns, duration_ns};
  }
};

/// Sampled op tracer: keeps the newest `ring_capacity` traces per slot.
/// sample_shift s samples every 2^s-th request; 0 turns the tracer off
/// (sample() always false, no memory beyond the empty ring vector).
class OpTracer {
 public:
  explicit OpTracer(unsigned sample_shift, std::size_t slots = 16,
                    std::size_t ring_capacity = 64);

  OpTracer(const OpTracer&) = delete;
  OpTracer& operator=(const OpTracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return shift_ != 0; }
  [[nodiscard]] unsigned sample_shift() const noexcept { return shift_; }

  /// Counts one request toward the sampling sequence. Returns true when this
  /// request should be traced; `seq` receives its global sequence number.
  [[nodiscard]] bool sample(std::uint64_t& seq) noexcept;

  /// Stores a finished trace in the calling thread's ring (overwrites the
  /// oldest entry once the ring is full).
  void publish(const Trace& trace);

  /// All retained traces, oldest first (sorted by seq).
  [[nodiscard]] std::vector<Trace> snapshot() const;

  /// `{"sample_shift":s,"traces":[...]}` -- the `stats trace` payload.
  [[nodiscard]] std::string to_json() const;

  void reset();

 private:
  struct alignas(64) Ring {
    mutable Mutex mu;
    std::vector<Trace> buf GUARDED_BY(mu);  ///< reserved to capacity up front
    std::size_t next GUARDED_BY(mu) = 0;    ///< write cursor once buf is full
  };

  unsigned shift_;      ///< Immutable after construction.
  std::uint64_t mask_;  ///< (1 << shift_) - 1; sampled when (seq & mask_) == 0
  std::size_t capacity_;
  std::atomic<std::uint64_t> seq_ ATOMIC_PUBLISHED(relaxed sampling seq){0};
  std::vector<Ring> rings_;
};

}  // namespace hykv::metrics
