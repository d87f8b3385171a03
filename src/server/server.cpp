#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/logging.hpp"
#include "server/protocol.hpp"

namespace hykv::server {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

void append_stat(std::string& out, std::string_view name, std::uint64_t v) {
  out.append(name);
  out.push_back(' ');
  out.append(std::to_string(v));
  out.push_back('\n');
}

// The `stats` rows that describe the store's shape rather than count.
#define HYKV_STORE_SHAPE_FIELDS(X)      \
  X(std::uint64_t, items)               \
  X(std::uint64_t, shards)              \
  X(std::uint64_t, slab_pages)          \
  X(std::uint64_t, slab_reserved_bytes) \
  X(std::uint64_t, slab_used_chunks)

struct StoreShape {
  HYKV_COUNTER_FIELDS(StoreShape, HYKV_STORE_SHAPE_FIELDS)
};

// The `stats` schema: row names in render order. Each row names a
// ServerCounters, ManagerStats or StoreShape field; where two families share
// a name (sets, deletes) the row is the server's counter. render_stats_text
// iterates this table and stats_field_names() exposes it to tests and the
// docs-consistency tool. Compatibility rule: only ever APPEND rows; existing
// names and their relative order are frozen.
constexpr std::string_view kStatsRows[] = {
    "requests", "sets", "gets", "deletes", "touches", "admin", "malformed",
    "shed", "expired_on_arrival", "items", "ram_hits", "ssd_hits", "misses",
    "expired", "optimistic_hits", "optimistic_retries", "locked_fallbacks",
    "flushes", "flushed_bytes", "promotions", "dropped_evictions",
    "ssd_live_bytes", "io_errors", "degraded", "degraded_shards", "shards",
    "slab_pages", "slab_reserved_bytes", "slab_used_chunks", "batches",
    "batched_ops"};

constexpr bool names_a_field(std::string_view row) {
  return metrics::has_field<ServerCounters>(row) ||
         metrics::has_field<store::ManagerStats>(row) ||
         metrics::has_field<StoreShape>(row);
}
static_assert(std::ranges::all_of(kStatsRows, names_a_field),
              "every `stats` row must name a counter-family field");

/// Per-histogram stats emitted for each op/span histogram, in order.
constexpr std::string_view kHistogramStats[] = {"count", "mean_ns", "p50_ns",
                                                "p95_ns", "p99_ns", "p999_ns"};

void append_histogram(std::string& out, const std::string& prefix,
                      const LatencyHistogram& hist) {
  append_stat(out, prefix + "_count", hist.count());
  append_stat(out, prefix + "_mean_ns",
              static_cast<std::uint64_t>(hist.mean_ns()));
  append_stat(out, prefix + "_p50_ns", hist.percentile_ns(50));
  append_stat(out, prefix + "_p95_ns", hist.percentile_ns(95));
  append_stat(out, prefix + "_p99_ns", hist.percentile_ns(99));
  append_stat(out, prefix + "_p999_ns", hist.percentile_ns(99.9));
}

}  // namespace

std::string render_stats_text(const ServerCounters& counters,
                              const store::ManagerStats& store,
                              const store::SlabStats& slab,
                              std::size_t item_count, unsigned shards) {
  const StoreShape shape{.items = item_count,
                         .shards = shards,
                         .slab_pages = slab.slab_pages,
                         .slab_reserved_bytes = slab.reserved_bytes,
                         .slab_used_chunks = slab.used_chunks};
  // Server counters go first, so a row name the store shares resolves to
  // the server's counter.
  std::vector<std::pair<std::string_view, std::uint64_t>> values;
  const auto collect = [&values](const auto& family) {
    using Family = std::remove_cvref_t<decltype(family)>;
    Family::for_each_field([&](std::string_view name, auto field) {
      values.emplace_back(name, static_cast<std::uint64_t>(family.*field));
    });
  };
  collect(counters);
  collect(store);
  collect(shape);
  std::string out;
  out.reserve(640);
  for (const std::string_view row : kStatsRows) {
    // Found: names_a_field() holds for every row (static_assert above).
    const auto value = std::ranges::find(values, row, [](const auto& entry) {
      return entry.first;
    });
    append_stat(out, row, value->second);
  }
  return out;
}

std::vector<std::string_view> stats_field_names() {
  return {std::begin(kStatsRows), std::end(kStatsRows)};
}

std::string render_latency_text(const metrics::LatencyRecorder& recorder) {
  std::string out;
  out.reserve(4096);
  append_stat(out, "latency_recording", 1);
  for (std::size_t i = 0; i < metrics::kOpCount; ++i) {
    const auto op = static_cast<metrics::Op>(i);
    append_histogram(out, "latency_" + std::string(metrics::to_string(op)),
                     recorder.op_histogram(op));
  }
  for (std::size_t i = 0; i < metrics::kSpanCount; ++i) {
    const auto span = static_cast<metrics::Span>(i);
    append_histogram(out, "span_" + std::string(metrics::to_string(span)),
                     recorder.span_histogram(span));
  }
  return out;
}

std::vector<std::string> latency_field_names() {
  std::vector<std::string> names;
  names.reserve(1 + (metrics::kOpCount + metrics::kSpanCount) *
                        std::size(kHistogramStats));
  names.emplace_back("latency_recording");
  for (std::size_t i = 0; i < metrics::kOpCount; ++i) {
    const auto op = static_cast<metrics::Op>(i);
    for (const std::string_view stat : kHistogramStats) {
      names.push_back("latency_" + std::string(metrics::to_string(op)) + "_" +
                      std::string(stat));
    }
  }
  for (std::size_t i = 0; i < metrics::kSpanCount; ++i) {
    const auto span = static_cast<metrics::Span>(i);
    for (const std::string_view stat : kHistogramStats) {
      names.push_back("span_" + std::string(metrics::to_string(span)) + "_" +
                      std::string(stat));
    }
  }
  return names;
}

namespace {
store::ManagerConfig with_recorder(store::ManagerConfig manager,
                                   metrics::LatencyRecorder* recorder) {
  manager.latency = recorder;
  return manager;
}
}  // namespace

MemcachedServer::MemcachedServer(net::Fabric& fabric, ServerConfig config,
                                 ssd::StorageStack* storage)
    : fabric_(fabric),
      config_(std::move(config)),
      endpoint_(fabric_.create_endpoint(config_.name)),
      recorder_(config_.record_latency
                    ? std::make_unique<metrics::LatencyRecorder>()
                    : nullptr),
      tracer_(config_.trace_sample_shift > 0
                  ? std::make_unique<metrics::OpTracer>(
                        config_.trace_sample_shift)
                  : nullptr),
      manager_(with_recorder(config_.manager, recorder_.get()), storage),
      buffered_(config_.async_processing ? config_.request_buffer_slots : 0),
      metrics_(1 + (config_.async_processing ? config_.processing_threads : 0)) {}

MemcachedServer::~MemcachedServer() { stop(); }

void MemcachedServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  threads_.emplace_back([this] { network_main(); });
  if (config_.async_processing) {
    for (unsigned i = 0; i < config_.processing_threads; ++i) {
      threads_.emplace_back([this, i] { worker_main(i); });
    }
  }
}

void MemcachedServer::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  endpoint_->close();
  buffered_.close();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
}

void MemcachedServer::network_main() {
  const bool admission_on =
      config_.max_inflight > 0 || config_.admission_queue_limit > 0;
  while (true) {
    auto msg = endpoint_->recv();
    if (!msg.ok()) break;  // endpoint closed
    const sim::TimePoint received_at = sim::now();
    if (config_.async_processing) {
      if (admission_on) {
        if (!admit(msg.value())) continue;  // shed with kBusy
        inflight_.fetch_add(1, kRelaxed);
      }
      // Buffer the request; a full slot pool stalls this receive loop,
      // back-pressuring clients that try to run too far ahead.
      if (!buffered_.push(
              BufferedRequest{std::move(msg).value(), received_at})) {
        break;
      }
    } else {
      handle(msg.value(), metrics_[0],
             RequestContext{received_at, received_at});
    }
  }
}

bool MemcachedServer::admit(const net::Message& request) {
  const bool queue_full = config_.admission_queue_limit > 0 &&
                          buffered_.size() >= config_.admission_queue_limit;
  const bool inflight_full = config_.max_inflight > 0 &&
                             inflight_.load(kRelaxed) >= config_.max_inflight;
  if (!queue_full && !inflight_full) return true;
  // Reject cheaply at receipt: no slab/SSD phase -- just a kBusy response so
  // the client backs off instead of queueing behind work the server cannot
  // absorb. The network thread owns metrics slot 0, so these are the usual
  // uncontended relaxed adds.
  WorkerMetrics& metrics = metrics_[0];
  if (request.opcode == kOpBatch) {
    // Shedding accounting stays exact per sub-op: a frame of n ops sheds n
    // requests, and every sub-op gets its own kBusy so the client retries
    // each one individually (no silent timeouts). This pays the frame decode
    // -- header walking only, no store work -- which is the price of exact
    // admission accounting under batching.
    const auto envelope = split_deadline(request.payload);
    const auto items = decode_batch(envelope.inner);
    if (items.has_value()) {
      const std::size_t n = items->size();
      metrics.add(&ServerCounters::requests, n);
      metrics.add(&ServerCounters::shed, n);
      metrics.add(&ServerCounters::batches);
      metrics.add(&ServerCounters::batched_ops, n);
      std::vector<std::vector<char>> bodies;
      std::vector<BatchResponseItem> responses;
      bodies.reserve(n);
      responses.reserve(n);
      for (const BatchItem& item : *items) {
        bodies.push_back(encode_response(StatusCode::kBusy, 0));
        responses.push_back(BatchResponseItem{item.wr_id, bodies.back()});
      }
      endpoint_->send(request.src, kOpBatchResponse, request.wr_id,
                      encode_batch_response(responses));
      return false;
    }
    // Undecodable frame: fall through to the single-request accounting (one
    // malformed-looking arrival, one plain kBusy).
  }
  metrics.add(&ServerCounters::requests);
  metrics.add(&ServerCounters::shed);
  endpoint_->send(request.src, kOpResponse, request.wr_id,
                  encode_response(StatusCode::kBusy, 0));
  return false;
}

void MemcachedServer::worker_main(std::size_t worker_index) {
  WorkerMetrics& metrics = metrics_[1 + worker_index];
  const bool admission_on =
      config_.max_inflight > 0 || config_.admission_queue_limit > 0;
  while (auto buffered = buffered_.pop()) {
    handle(buffered->msg, metrics,
           RequestContext{buffered->received_at, sim::now()});
    if (admission_on) inflight_.fetch_sub(1, kRelaxed);
  }
}

MemcachedServer::OpResult MemcachedServer::execute_op(
    std::uint16_t opcode, std::span<const char> body, WorkerMetrics& metrics,
    std::vector<char>& value, metrics::Op& op_cls) {
  OpResult result;
  StatusCode& status = result.status;
  std::uint32_t& flags = result.flags;
  bool& has_value = result.has_value;

  // Malformed requests land in the kOther histogram whatever their opcode
  // claimed (mirrors the `malformed` counter).
  const auto count_malformed = [&metrics, &op_cls] {
    metrics.add(&ServerCounters::malformed);
    op_cls = metrics::Op::kOther;
  };

  switch (opcode) {
    case kOpSet: {
      const auto req = decode_set(body);
      if (req.has_value()) {
        status = manager_.set(req->key, req->value, req->flags,
                              req->expiration);
        metrics.add(&ServerCounters::sets);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpGet: {
      const auto req = decode_key_request(body);
      if (req.has_value()) {
        status = manager_.get(req->key, value, flags);
        has_value = ok(status);
        metrics.add(&ServerCounters::gets);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpDelete: {
      const auto req = decode_key_request(body);
      if (req.has_value()) {
        status = manager_.del(req->key);
        metrics.add(&ServerCounters::deletes);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpAdd:
    case kOpReplace:
    case kOpAppend:
    case kOpPrepend: {
      const auto req = decode_set(body);
      if (req.has_value()) {
        switch (opcode) {
          case kOpAdd:
            status = manager_.add(req->key, req->value, req->flags,
                                  req->expiration);
            break;
          case kOpReplace:
            status = manager_.replace(req->key, req->value, req->flags,
                                      req->expiration);
            break;
          case kOpAppend:
            status = manager_.append(req->key, req->value);
            break;
          default:
            status = manager_.prepend(req->key, req->value);
            break;
        }
        metrics.add(&ServerCounters::sets);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpIncr:
    case kOpDecr: {
      const auto req = decode_counter(body);
      if (req.has_value()) {
        const auto result_v = opcode == kOpIncr
                                  ? manager_.incr(req->key, req->delta)
                                  : manager_.decr(req->key, req->delta);
        status = result_v.status();
        if (result_v.ok()) {
          value = encode_counter_value(result_v.value());
          has_value = true;
        }
        metrics.add(&ServerCounters::sets);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpTouch: {
      const auto req = decode_touch(body);
      if (req.has_value()) {
        status = manager_.touch(req->key, req->expiration);
        metrics.add(&ServerCounters::touches);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpFlushAll: {
      manager_.clear();
      status = StatusCode::kOk;
      metrics.add(&ServerCounters::admin);
      break;
    }
    case kOpStats: {
      // Subcommands ride in the payload: "" = legacy counter text (frozen
      // format, byte-identical whether recording is on or off), "latency" =
      // histogram percentiles, "trace" = sampled timelines as JSON. Unknown
      // subcommands answer kInvalidArgument but still count as admin so
      // requests == ops_sum() holds.
      const std::string_view what =
          body.empty() ? std::string_view{}
                       : std::string_view(body.data(), body.size());
      if (what.empty()) {
        value = render_stats();
        has_value = true;
        status = StatusCode::kOk;
      } else if (what == "latency") {
        const std::string text = recorder_ != nullptr
                                     ? render_latency_text(*recorder_)
                                     : std::string("latency_recording 0\n");
        value.assign(text.begin(), text.end());
        has_value = true;
        status = StatusCode::kOk;
      } else if (what == "trace") {
        const std::string text =
            tracer_ != nullptr ? tracer_->to_json()
                               : std::string("{\"sample_shift\":0,\"traces\":[]}\n");
        value.assign(text.begin(), text.end());
        has_value = true;
        status = StatusCode::kOk;
      } else {
        status = StatusCode::kInvalidArgument;
      }
      metrics.add(&ServerCounters::admin);
      break;
    }
    case kOpGets: {
      const auto req = decode_key_request(body);
      if (req.has_value()) {
        std::vector<char> raw;
        std::uint64_t cas = 0;
        status = manager_.gets(req->key, raw, flags, cas);
        if (ok(status)) {
          value.resize(8 + raw.size());
          std::memcpy(value.data(), &cas, 8);
          std::memcpy(value.data() + 8, raw.data(), raw.size());
          has_value = true;
        }
        metrics.add(&ServerCounters::gets);
      } else {
        count_malformed();
      }
      break;
    }
    case kOpCas: {
      const auto req = decode_cas(body);
      if (req.has_value()) {
        status = manager_.cas(req->key, req->value, req->flags,
                              req->expiration, req->cas);
        metrics.add(&ServerCounters::sets);
      } else {
        count_malformed();
      }
      break;
    }
    default: {
      count_malformed();
      break;
    }
  }
  return result;
}

void MemcachedServer::handle(const net::Message& request,
                             WorkerMetrics& metrics,
                             const RequestContext& ctx) {
  using Clock = std::chrono::steady_clock;

  // Observability (DESIGN.md §10). Recorder/tracer touches are skipped
  // entirely when both are off -- not even a clock read.
  metrics::LatencyRecorder* const recorder = recorder_.get();
  if (recorder != nullptr) {
    // Fabric-transfer span: post -> delivery, stamped by the sender. Guarded
    // because hand-built messages (tests) may lack the stamp. Recorded once
    // per *message*, so a batch frame contributes one transfer span.
    if (request.sent_at != sim::TimePoint{}) {
      recorder->record_span(metrics::Span::kFabricTransfer,
                            metrics::delta_ns(request.sent_at,
                                              request.deliver_at));
    }
    if (ctx.dequeued_at > ctx.received_at) {
      recorder->record_span(metrics::Span::kAdmissionWait,
                            metrics::delta_ns(ctx.received_at,
                                              ctx.dequeued_at));
    }
  }

  // Deadline propagation: strip the optional client-deadline header before
  // anything else so expired work is dropped *before* paying the slab/SSD
  // phase -- the client has already given up on it.
  const auto envelope = split_deadline(request.payload);

  if (request.opcode == kOpBatch) {
    // Coalesced frame: vectorized execution with per-sub-op accounting.
    // Batch frames are not individually traced (the tracer samples single
    // requests); their latency still lands per sub-op in the recorder.
    handle_batch(request, envelope.deadline_ns, envelope.inner, metrics, ctx);
    return;
  }

  metrics.add(&ServerCounters::requests);

  std::uint64_t trace_seq = 0;
  const bool traced = tracer_ != nullptr && tracer_->sample(trace_seq);
  const bool observing = recorder != nullptr || traced;
  metrics::Op op_cls = op_class(request.opcode);

  // Expired on arrival: the reply is kBusy (cheap, no side effects); a
  // client that raced its own deadline treats it exactly like the timeout
  // it was about to declare.
  if (envelope.deadline_ns != 0 &&
      Clock::now().time_since_epoch().count() > envelope.deadline_ns) {
    metrics.add(&ServerCounters::expired_on_arrival);
    endpoint_->send(request.src, kOpResponse, request.wr_id,
                    encode_response(StatusCode::kBusy, 0));
    return;
  }
  const std::span<const char> body = envelope.inner;

  // Store phase span: opcode dispatch including the store call(s).
  const Clock::time_point store_start =
      observing ? Clock::now() : Clock::time_point{};

  std::vector<char> value;
  const OpResult op = execute_op(request.opcode, body, metrics, value, op_cls);
  const StatusCode status = op.status;

  // Response span: format + hand to the NIC.
  const Clock::time_point response_start =
      observing ? Clock::now() : Clock::time_point{};
  const auto payload = encode_response(
      status, op.flags,
      op.has_value ? std::span<const char>(value) : std::span<const char>{});
  HYKV_DEBUG("server %llu handled wr=%llu op=%u -> status=%u",
             static_cast<unsigned long long>(endpoint_->id()),
             static_cast<unsigned long long>(request.wr_id), request.opcode,
             static_cast<unsigned>(status));
  endpoint_->send(request.src, kOpResponse, request.wr_id, payload);

  if (observing) {
    const auto response_end = Clock::now();
    // End-to-end latency is receipt -> response sent; the fabric-transfer
    // span (recorded above) covers the wire time before receipt.
    if (recorder != nullptr) {
      recorder->record_op(op_cls,
                          metrics::delta_ns(ctx.received_at, response_end));
      recorder->record_span(metrics::Span::kStorePhase,
                            metrics::delta_ns(store_start, response_start));
      recorder->record_span(metrics::Span::kResponse,
                            metrics::delta_ns(response_start, response_end));
    }
    if (traced) {
      // The trace timeline starts at the earliest instant we know about the
      // request: the fabric post when stamped, else server receipt.
      const sim::TimePoint origin = request.sent_at != sim::TimePoint{}
                                        ? request.sent_at
                                        : ctx.received_at;
      metrics::Trace trace;
      trace.seq = trace_seq;
      trace.op = op_cls;
      trace.status = static_cast<std::uint8_t>(status);
      trace.start_ns = static_cast<std::uint64_t>(
          origin.time_since_epoch().count() < 0
              ? 0
              : origin.time_since_epoch().count());
      trace.total_ns = metrics::delta_ns(origin, response_end);
      if (request.sent_at != sim::TimePoint{}) {
        trace.add_span(metrics::Span::kFabricTransfer, 0,
                       metrics::delta_ns(request.sent_at, request.deliver_at));
      }
      if (ctx.dequeued_at > ctx.received_at) {
        trace.add_span(metrics::Span::kAdmissionWait,
                       metrics::delta_ns(origin, ctx.received_at),
                       metrics::delta_ns(ctx.received_at, ctx.dequeued_at));
      }
      trace.add_span(metrics::Span::kStorePhase,
                     metrics::delta_ns(origin, store_start),
                     metrics::delta_ns(store_start, response_start));
      trace.add_span(metrics::Span::kResponse,
                     metrics::delta_ns(origin, response_start),
                     metrics::delta_ns(response_start, response_end));
      tracer_->publish(trace);
    }
  }
}

void MemcachedServer::handle_batch(const net::Message& request,
                                   std::int64_t deadline_ns,
                                   std::span<const char> body,
                                   WorkerMetrics& metrics,
                                   const RequestContext& ctx) {
  using Clock = std::chrono::steady_clock;
  metrics::LatencyRecorder* const recorder = recorder_.get();

  const auto items = decode_batch(body);
  if (!items.has_value()) {
    // Undecodable frame: ONE malformed request (there is no trustworthy
    // sub-op count to charge), answered with a single plain response so the
    // client's first pending op -- the outer wr_id -- fails fast; any other
    // ops the sender meant to pack will cancel at their deadlines.
    metrics.add(&ServerCounters::requests);
    metrics.add(&ServerCounters::malformed);
    const auto start = ctx.received_at;
    endpoint_->send(request.src, kOpResponse, request.wr_id,
                    encode_response(StatusCode::kInvalidArgument, 0));
    if (recorder != nullptr) {
      recorder->record_op(metrics::Op::kOther,
                          metrics::delta_ns(start, sim::now()));
    }
    return;
  }

  // Admission-exact accounting: a frame of n sub-ops is n requests, exactly
  // as if they had arrived individually (requests == ops_sum() invariant).
  const std::size_t n = items->size();
  metrics.add(&ServerCounters::requests, n);
  metrics.add(&ServerCounters::batches);
  metrics.add(&ServerCounters::batched_ops, n);

  std::vector<std::vector<char>> bodies;
  std::vector<BatchResponseItem> responses;
  bodies.reserve(n);
  responses.reserve(n);

  // The frame carries one propagated deadline (the tightest sub-op's): if it
  // passed in flight, every sub-op is expired on arrival -- all-kBusy reply,
  // no store work.
  if (deadline_ns != 0 &&
      Clock::now().time_since_epoch().count() > deadline_ns) {
    metrics.add(&ServerCounters::expired_on_arrival, n);
    for (const BatchItem& item : *items) {
      bodies.push_back(encode_response(StatusCode::kBusy, 0));
      responses.push_back(BatchResponseItem{item.wr_id, bodies.back()});
    }
    endpoint_->send(request.src, kOpBatchResponse, request.wr_id,
                    encode_batch_response(responses));
    return;
  }

  // Vectorized store phase: each sub-op runs through the same dispatch as a
  // single request (same counters, same store calls); the store-phase span
  // covers the whole frame.
  std::vector<metrics::Op> op_classes;
  op_classes.reserve(n);
  const Clock::time_point store_start =
      recorder != nullptr ? Clock::now() : Clock::time_point{};
  for (const BatchItem& item : *items) {
    std::vector<char> value;
    metrics::Op op_cls = op_class(item.opcode);
    const OpResult op =
        execute_op(item.opcode, item.payload, metrics, value, op_cls);
    op_classes.push_back(op_cls);
    bodies.push_back(encode_response(
        op.status, op.flags,
        op.has_value ? std::span<const char>(value) : std::span<const char>{}));
    responses.push_back(BatchResponseItem{item.wr_id, bodies.back()});
  }

  // One response doorbell for the whole frame -- the server-side half of the
  // amortization the client started.
  const Clock::time_point response_start =
      recorder != nullptr ? Clock::now() : Clock::time_point{};
  const auto frame = encode_batch_response(responses);
  HYKV_DEBUG("server %llu handled batch wr=%llu n=%zu",
             static_cast<unsigned long long>(endpoint_->id()),
             static_cast<unsigned long long>(request.wr_id), n);
  endpoint_->send(request.src, kOpBatchResponse, request.wr_id, frame);

  if (recorder != nullptr) {
    const auto response_end = Clock::now();
    // Per sub-op latency (receipt -> batched response sent) keeps the
    // METRICS.md balance: sum of op counts == requests - shed -
    // expired_on_arrival. Store/response spans are per *frame* -- spans
    // measure pipeline phases, not ops.
    for (const metrics::Op op_cls : op_classes) {
      recorder->record_op(op_cls,
                          metrics::delta_ns(ctx.received_at, response_end));
    }
    recorder->record_span(metrics::Span::kStorePhase,
                          metrics::delta_ns(store_start, response_start));
    recorder->record_span(metrics::Span::kResponse,
                          metrics::delta_ns(response_start, response_end));
  }
}

std::vector<char> MemcachedServer::render_stats() const {
  const std::string text =
      render_stats_text(counters(), manager_.stats(), manager_.slab_stats(),
                        manager_.item_count(), manager_.num_shards());
  return {text.begin(), text.end()};
}

ServerCounters MemcachedServer::counters() const {
  ServerCounters total;
  for (const auto& slot : metrics_) metrics::merge(total, slot.snapshot());
  return total;
}

void MemcachedServer::reset_metrics() {
  for (auto& slot : metrics_) slot.reset();
  if (recorder_ != nullptr) recorder_->reset();
  if (tracer_ != nullptr) tracer_->reset();
}

}  // namespace hykv::server
