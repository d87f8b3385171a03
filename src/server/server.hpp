// The Memcached server runtime.
//
// Two request-handling modes, mirroring Section V-B of the paper:
//
//   synchronous (async_processing=false) -- the classic pipeline: the network
//     thread receives a request, runs the full slab/LRU/SSD pipeline inline,
//     then responds. This is how IPoIB-Mem, RDMA-Mem, H-RDMA-Def and
//     H-RDMA-Opt-Block servers behave: a slow SSD flush stalls the pipeline
//     and every queued client feels it.
//
//   asynchronous (async_processing=true) -- the "enhanced" server for the
//     non-blocking APIs: the network thread only *buffers* requests (bounded
//     slot pool) and hands them to processing workers; the expensive hybrid
//     memory/SSD phase runs off the receive path and the response is sent on
//     completion (the dotted-green path in Fig. 3). When the slot pool is
//     full the receive loop stalls -- the backpressure that bounds how far a
//     bursty non-blocking client can run ahead of a busy server. A plain GET
//     whose key sits on the SSD does not hold its worker for the flash read
//     either: the worker pins the record and moves on, and a small pool of
//     completion threads reads it and sends the reply (DESIGN.md §13).
//
// The storage tier behind the workers is sharded (store::ShardedManager):
// requests for different key partitions never share a store lock, so
// processing_threads > 1 actually overlaps hybrid-memory work. The request
// hot path itself is metric-lock-free: every handler thread owns a metrics
// slot of relaxed atomic counters merged on demand by counters(), instead of
// taking a global metrics mutex several times per request.
//
// Per-stage wall time lands in the latency recorder (latency()) as spans;
// the paper's server stages for Fig. 2 / Fig. 6 are derived from their sums
// (DESIGN.md §10).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/queue.hpp"
#include "common/thread_annotations.hpp"
#include "net/fabric.hpp"
#include "ssd/io_engine.hpp"
#include "store/sharded_manager.hpp"

namespace hykv::server {

struct RequestFrame;  // protocol.hpp
class ReplyWriter;   // protocol.hpp

/// Async mode: threads that finish deferred SSD GETs and send their replies.
/// Most deferred reads hit the page cache; with more threads those pass the
/// reads that queue behind a write-back on a single SATA channel. On the
/// overflow workload 1, 2, 4 and 8 threads gave 29.8k, 31.2k, 33.1k and
/// 34.2k ops/s (DESIGN.md §13): four is the smallest within noise of the
/// best.
inline constexpr unsigned kCompletionThreads = 4;

struct ServerConfig {
  std::string name = "memcached";
  store::ManagerConfig manager{};
  bool async_processing = false;
  unsigned processing_threads = 1;      ///< Async mode worker count.
  std::size_t request_buffer_slots = 16;///< Async mode buffered-request bound.

  // ---- Overload control (DESIGN.md §8; both default-off, preserving the
  //      pre-overload behaviour: a full slot pool stalls the receive loop
  //      instead of shedding) ----
  /// Async mode: bound on admitted-but-unfinished requests (0 = unlimited).
  /// At the bound, new arrivals are rejected at receipt with a cheap kBusy
  /// response -- no payload decode, no store phase.
  std::size_t max_inflight = 0;
  /// Async mode: buffered-queue depth at which the receive loop sheds with
  /// kBusy instead of stalling (0 = off: blocking-push backpressure).
  std::size_t admission_queue_limit = 0;

  // ---- Observability (DESIGN.md §10; docs/METRICS.md is the catalog) ----
  /// Per-op-type and per-stage latency histograms, served by the
  /// `stats latency` subcommand. On by default: recording is a handful of
  /// relaxed atomic adds per request (<=2% throughput cost -- see
  /// bench/ablation_obs_overhead.cpp). Off removes every recorder touch
  /// from the hot path; the legacy `stats` text is byte-identical either
  /// way.
  bool record_latency = true;
  /// Sampled op tracing: 0 = off (default); shift s captures every 2^s-th
  /// request's stage timeline into per-worker rings, dumped as JSON by the
  /// `stats trace` subcommand.
  unsigned trace_sample_shift = 0;
};

/// Per-op request counters. Every well-formed request bumps exactly one of
/// sets/gets/deletes/touches/admin; a malformed or unknown one bumps
/// malformed; a request rejected by admission control bumps shed, and one
/// dropped for arriving past its propagated deadline bumps expired_on_arrival
/// -- so `requests == ops_sum()` always balances (asserted by the chaos
/// suite).
///
/// Doorbell batching (DESIGN.md §12): `batches` and `batched_ops` are
/// informational frame counters, NOT part of ops_sum(). A batch frame of
/// n sub-ops bumps `requests` by n and each sub-op lands in its per-op
/// counter exactly as if sent individually, so requests == ops_sum() still
/// balances; these two only describe *how* the ops arrived (batched_ops /
/// batches = achieved server-side fill).
#define HYKV_SERVER_COUNTER_FIELDS(X)                                        \
  X(std::uint64_t, requests)                                                 \
  X(std::uint64_t, sets) /* set/add/replace/append/prepend/incr/decr/cas */  \
  X(std::uint64_t, gets) /* get/gets */                                      \
  X(std::uint64_t, deletes)                                                  \
  X(std::uint64_t, touches)                                                  \
  X(std::uint64_t, admin) /* flush_all + stats */                            \
  X(std::uint64_t, malformed)                                                \
  X(std::uint64_t, shed) /* rejected kBusy at receipt (admission full) */    \
  X(std::uint64_t, expired_on_arrival) /* dropped: client deadline passed */ \
  X(std::uint64_t, batches) /* well-formed batch frames received */          \
  X(std::uint64_t, batched_ops) /* sub-ops carried by those frames */

struct ServerCounters {
  HYKV_COUNTER_FIELDS(ServerCounters, HYKV_SERVER_COUNTER_FIELDS)

  [[nodiscard]] std::uint64_t ops_sum() const noexcept {
    return sets + gets + deletes + touches + admin + malformed + shed +
           expired_on_arrival;
  }
};

/// memcached "stats" text ("name value\n" lines). Free function so the
/// renderer is testable with arbitrary (e.g. maximal) counter values; built
/// on std::string, which cannot truncate or overread the way a fixed
/// snprintf buffer can.
///
/// Compatibility guarantee: lines appear in the fixed order of the internal
/// field table; new counters are only ever APPENDED to that table, and
/// stats_field_names() exposes it so tests and the docs-consistency check
/// derive the expected layout instead of hard-coding line counts.
[[nodiscard]] std::string render_stats_text(const ServerCounters& counters,
                                            const store::ManagerStats& store,
                                            const store::SlabStats& slab,
                                            std::size_t item_count,
                                            unsigned shards);

/// The `stats` line names, in render order (single source of truth shared by
/// render_stats_text, the stats tests, and tools/dump_metrics).
[[nodiscard]] std::vector<std::string_view> stats_field_names();

/// The `stats latency` text: one "name value\n" line per op-class histogram
/// stat (latency_<op>_{count,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns}) followed
/// by the same for each stage span (span_<span>_...), preceded by a
/// "latency_recording 1" header. All values are integer nanoseconds/counts.
[[nodiscard]] std::string render_latency_text(
    const metrics::LatencyRecorder& recorder);

/// The `stats latency` line names, in render order.
[[nodiscard]] std::vector<std::string> latency_field_names();

class MemcachedServer {
 public:
  /// `storage` may be nullptr iff the manager mode is kInMemory. The server
  /// owns an endpoint on `fabric`; start() spawns its threads.
  MemcachedServer(net::Fabric& fabric, ServerConfig config,
                  ssd::StorageStack* storage);
  ~MemcachedServer();

  MemcachedServer(const MemcachedServer&) = delete;
  MemcachedServer& operator=(const MemcachedServer&) = delete;

  void start();
  void stop();

  [[nodiscard]] net::EndpointId endpoint_id() const { return endpoint_->id(); }
  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] store::ManagerStats store_stats() const { return manager_.stats(); }
  [[nodiscard]] store::ShardedManager& manager() noexcept { return manager_; }

  /// Merged latency recorder view (nullptr when record_latency is off). The
  /// same data the `stats latency` subcommand serves over the wire.
  [[nodiscard]] const metrics::LatencyRecorder* latency() const noexcept {
    return recorder_.get();
  }
  /// Sampled op tracer (nullptr when trace_sample_shift == 0).
  [[nodiscard]] const metrics::OpTracer* tracer() const noexcept {
    return tracer_.get();
  }

  void reset_metrics();

 private:
  /// One handler thread's counter slot: the owning thread adds, readers
  /// merge all slots on demand.
  using WorkerMetrics = metrics::CounterSlot<ServerCounters>;

  /// An async-buffered request plus the instant the network thread received
  /// it -- dequeue-minus-receipt is the admission-wait span.
  struct BufferedRequest {
    net::Message msg;
    sim::TimePoint received_at{};
  };
  /// Receipt/dequeue timestamps a request carries into handle() so latency
  /// is measured end to end, not from when a worker got around to it.
  struct RequestContext {
    sim::TimePoint received_at{};
    sim::TimePoint dequeued_at{};
  };

  /// Outcome of one op. The value bytes live in the caller-provided
  /// buffer; `has_value` says whether they belong in the response. The
  /// defaults are a malformed request's outcome.
  struct OpResult {
    metrics::Op op = metrics::Op::kOther;  ///< op_class, kOther if malformed.
    StatusCode status = StatusCode::kInvalidArgument;
    std::uint32_t flags = 0;
    bool has_value = false;
  };

  /// One op's outcome, kept until the frame's reply is out.
  struct OpOutcome {
    metrics::Op op = metrics::Op::kOther;
    StatusCode status = StatusCode::kServerError;
    bool traced = false;
    std::uint64_t seq = 0;  ///< Trace sequence number when traced.
  };

  /// The stages a frame passes through, as offsets from the earliest
  /// instant known for it: the fabric post when stamped (hand-built test
  /// messages may lack it), else server receipt.
  struct Timeline {
    sim::TimePoint origin{};
    sim::TimePoint received_at{};
    sim::TimePoint store_start{};
    metrics::Trace stages{};

    void add(metrics::Span span, sim::TimePoint start, sim::TimePoint end) {
      stages.add_span(span, metrics::delta_ns(origin, start),
                      metrics::delta_ns(start, end));
    }
  };

  /// A plain GET or GETS frame whose SSD read a completion thread finishes.
  struct DeferredGet {
    store::PendingRead read;
    net::EndpointId src = net::kInvalidEndpoint;
    std::uint64_t wr_id = 0;
    std::uint16_t opcode = 0;
    Timeline timeline;
    OpOutcome outcome;
  };

  void network_main();
  void worker_main(std::size_t worker_index);
  void completion_main();
  /// The one request handler, for either frame shape (protocol.hpp): counts
  /// the frame's ops, checks its deadline once, executes each op and sends
  /// one reply (DESIGN.md §12), or leaves it to a completion thread.
  void handle(const net::Message& request, WorkerMetrics& metrics,
              const RequestContext& ctx);
  /// Decodes one op and runs it against the store. A GET or GETS given
  /// `deferred` may leave its SSD read there and answer kInProgress.
  OpResult execute_op(std::uint16_t opcode, std::span<const char> body,
                      std::vector<char>& value,
                      store::PendingRead* deferred = nullptr);
  /// Finishes a deferred GET's SSD read and sends its reply.
  void finish_deferred(DeferredGet& get);
  /// Sends a frame's reply, then records its spans, its ops' latencies and
  /// its sampled traces. The frame's admission slot is released first.
  void respond(net::EndpointId dst, std::uint64_t wr_id,
               const ReplyWriter& reply, Timeline& timeline,
               std::span<const OpOutcome> outcomes);
  /// Feeds a frame's spans to the recorder; a no-op with recording off.
  void record_stages(const metrics::Trace& stages);
  /// Answers every op of the frame with `status` and no value, in one reply.
  void reply_all(const net::Message& request, const RequestFrame& frame,
                 StatusCode status);
  /// Admission check for one arriving request (async mode, admission on).
  /// Returns false after shedding it with a cheap kBusy response.
  bool admit(const net::Message& request);
  /// Frees an admitted request's slot in the admission window. Called just
  /// before its reply is sent: once the client has the reply, its next
  /// request must not find the slot still taken.
  void release_slot();

  net::Fabric& fabric_;
  ServerConfig config_;
  std::shared_ptr<net::Endpoint> endpoint_;
  /// Declared (and thus constructed) before manager_: the manager config
  /// gets the recorder pointer injected, so the recorder must outlive and
  /// pre-date the manager.
  std::unique_ptr<metrics::LatencyRecorder> recorder_;  ///< null = off
  std::unique_ptr<metrics::OpTracer> tracer_;           ///< null = off
  store::ShardedManager manager_;
  /// Async mode with admission on: every admitted request holds one
  /// inflight_ slot until its reply is sent.
  const bool counts_inflight_;

  BlockingQueue<BufferedRequest> buffered_;  ///< Async mode slot pool.
  /// Async mode: GETs the workers deferred. Unbounded: each entry is an
  /// admitted request, so the client windows and max_inflight bound it.
  BlockingQueue<DeferredGet> deferred_;
  std::vector<std::thread> threads_;  ///< Network thread, then the workers.
  std::vector<std::thread> completers_;  ///< Async mode completion pool.
  std::atomic<bool> running_ ATOMIC_PUBLISHED(thread start/stop gate){false};
  /// Admitted-but-unfinished requests; only maintained when admission
  /// control is on, so the default hot path carries zero extra work.
  std::atomic<std::size_t> inflight_ ATOMIC_PUBLISHED(admission window){0};

  /// Slot 0: network thread (sync mode); slots 1..N: processing workers.
  std::vector<WorkerMetrics> metrics_;
};

}  // namespace hykv::server
