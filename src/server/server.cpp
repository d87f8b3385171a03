#include "server/server.hpp"

#include <algorithm>
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
    "batched_ops", "clean_evictions"};

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

/// Opens a request frame. A batch frame that does not decode has no
/// trustworthy op count, so it becomes one op of its own opcode, which the
/// dispatcher does not know: one malformed request, answered with a plain
/// reply on the frame's wr_id. The sender's first pending op -- the outer
/// wr_id -- fails fast; the other ops it packed cancel at their deadlines.
RequestFrame open_frame(const net::Message& request) {
  if (auto frame =
          open_request(request.opcode, request.wr_id, request.payload)) {
    return *std::move(frame);
  }
  RequestFrame malformed;
  malformed.single = {.opcode = request.opcode,
                      .wr_id = request.wr_id,
                      .payload = request.payload};
  return malformed;
}

/// Arrival accounting, exact per op: a frame of n ops is n requests, as if
/// they had arrived one by one (the requests == ops_sum() invariant). The
/// frame counters only describe how they arrived.
void count_arrival(metrics::CounterSlot<ServerCounters>& metrics,
                   const RequestFrame& frame) {
  const std::size_t n = frame.ops().size();
  metrics.add(&ServerCounters::requests, n);
  if (frame.batched()) {
    metrics.add(&ServerCounters::batches);
    metrics.add(&ServerCounters::batched_ops, n);
  }
}

/// The ServerCounters field each op class counts in, indexed by
/// metrics::Op: op_class() is the one opcode->counter mapping, and a
/// malformed request (kOther) counts as malformed.
constexpr std::uint64_t ServerCounters::*kOpCounters[metrics::kOpCount] = {
    &ServerCounters::sets,    &ServerCounters::gets,
    &ServerCounters::deletes, &ServerCounters::touches,
    &ServerCounters::admin,   &ServerCounters::malformed};

/// Turns a GET or GETS that read `value` into its reply value (GETS puts
/// the CAS first); false when the read failed and the reply carries none.
bool read_reply(std::uint16_t opcode, StatusCode status, std::uint64_t cas,
                std::vector<char>& value) {
  if (!ok(status)) return false;
  if (opcode == kOpGets) {
    char bytes[8];
    std::memcpy(bytes, &cas, 8);
    value.insert(value.begin(), bytes, bytes + 8);
  }
  return true;
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
      counts_inflight_(config_.async_processing &&
                       (config_.max_inflight > 0 ||
                        config_.admission_queue_limit > 0)),
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
    for (unsigned i = 0; i < kCompletionThreads; ++i) {
      completers_.emplace_back([this] { completion_main(); });
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
  // The workers defer no more: the completion pool drains what they left,
  // so no read stays pinned once the manager goes away.
  deferred_.close();
  for (auto& thread : completers_) thread.join();
  completers_.clear();
}

void MemcachedServer::network_main() {
  while (true) {
    auto msg = endpoint_->recv();
    if (!msg.ok()) break;  // endpoint closed
    const sim::TimePoint received_at = sim::now();
    if (config_.async_processing) {
      if (counts_inflight_) {
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
  // absorb. Shedding stays exact per op: a frame of n ops sheds n requests
  // and answers each with its own kBusy, so the client retries each one
  // (no silent timeouts). Only a shed frame is opened here, and opening a
  // batch frame walks its headers, no store work. The network thread owns
  // metrics slot 0, so these are the usual uncontended relaxed adds.
  const RequestFrame frame = open_frame(request);
  count_arrival(metrics_[0], frame);
  metrics_[0].add(&ServerCounters::shed, frame.ops().size());
  reply_all(request, frame, StatusCode::kBusy);
  return false;
}

void MemcachedServer::worker_main(std::size_t worker_index) {
  WorkerMetrics& metrics = metrics_[1 + worker_index];
  while (auto buffered = buffered_.pop()) {
    handle(buffered->msg, metrics,
           RequestContext{buffered->received_at, sim::now()});
  }
}

void MemcachedServer::completion_main() {
  while (auto get = deferred_.pop()) finish_deferred(*get);
}

void MemcachedServer::release_slot() {
  if (counts_inflight_) inflight_.fetch_sub(1, kRelaxed);
}

void MemcachedServer::finish_deferred(DeferredGet& get) {
  std::vector<char> value;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  const StatusCode status = manager_.finish_read(
      get.read, value, flags, get.opcode == kOpGets ? &cas : nullptr);
  const bool has_value = read_reply(get.opcode, status, cas, value);
  get.outcome.status = status;
  ReplyWriter reply(RequestFrame{});  // a plain frame's reply
  reply.add(get.wr_id, status, flags,
            has_value ? std::span<const char>(value) : std::span<const char>{});
  respond(get.src, get.wr_id, reply, get.timeline, {&get.outcome, 1});
}

MemcachedServer::OpResult MemcachedServer::execute_op(
    std::uint16_t opcode, std::span<const char> body,
    std::vector<char>& value, store::PendingRead* deferred) {
  const std::optional<OpRequest> req = decode_request(opcode, body);
  if (!req.has_value()) return {};  // malformed: kInvalidArgument, kOther
  OpResult result{.op = op_class(opcode)};
  StatusCode& status = result.status;
  switch (opcode) {
    case kOpSet:
    case kOpAdd:
    case kOpReplace:
    case kOpCas: {
      // One store path: the opcode only picks the commit's precondition.
      using store::Condition;
      const Condition::Kind kind = opcode == kOpSet       ? Condition::kAlways
                                   : opcode == kOpAdd     ? Condition::kAbsent
                                   : opcode == kOpReplace ? Condition::kPresent
                                                          : Condition::kVersion;
      status = manager_.store(req->key, req->value, req->flags,
                              req->expiration, Condition{kind, req->arg});
      break;
    }
    case kOpAppend:
    case kOpPrepend:
    case kOpIncr:
    case kOpDecr: {
      using store::Update;
      const Update::Kind kind = opcode == kOpAppend    ? Update::kAppend
                                : opcode == kOpPrepend ? Update::kPrepend
                                : opcode == kOpIncr    ? Update::kIncr
                                                       : Update::kDecr;
      const auto updated =
          manager_.update(req->key, Update{kind, req->value, req->arg});
      status = updated.status();
      if (updated.ok() && (kind == Update::kIncr || kind == Update::kDecr)) {
        value = encode_counter_value(updated.value());
        result.has_value = true;
      }
      break;
    }
    case kOpGet:
    case kOpGets: {
      std::uint64_t cas = 0;
      status = manager_.get(req->key, value, result.flags,
                            opcode == kOpGets ? &cas : nullptr, deferred);
      result.has_value = read_reply(opcode, status, cas, value);
      break;
    }
    case kOpDelete:
      status = manager_.del(req->key);
      break;
    case kOpTouch:
      status = manager_.touch(req->key, req->expiration);
      break;
    case kOpFlushAll:
      manager_.clear();
      status = StatusCode::kOk;
      break;
    case kOpStats: {
      // The subcommand rides in the key: "" = legacy counter text (frozen
      // format, byte-identical whether recording is on or off), "latency" =
      // histogram percentiles, "trace" = sampled timelines as JSON. An
      // unknown one answers kInvalidArgument, still counted as admin.
      std::string text;
      if (req->key.empty()) {
        text = render_stats_text(counters(), manager_.stats(),
                                 manager_.slab_stats(), manager_.item_count(),
                                 manager_.num_shards());
      } else if (req->key == "latency") {
        text = recorder_ != nullptr ? render_latency_text(*recorder_)
                                    : "latency_recording 0\n";
      } else if (req->key == "trace") {
        text = tracer_ != nullptr ? tracer_->to_json()
                                  : "{\"sample_shift\":0,\"traces\":[]}\n";
      } else {
        break;
      }
      value.assign(text.begin(), text.end());
      result.has_value = true;
      status = StatusCode::kOk;
      break;
    }
    default:
      break;  // unreachable: decode_request accepts request opcodes only
  }
  return result;
}

void MemcachedServer::handle(const net::Message& request,
                             WorkerMetrics& metrics,
                             const RequestContext& ctx) {
  const RequestFrame frame = open_frame(request);
  const std::span<const BatchItem> ops = frame.ops();
  count_arrival(metrics, frame);

  // Observability (DESIGN.md §10): one timeline feeds the span histograms
  // and every sampled op's trace. With recorder and tracer both off, no
  // stage costs even a clock read.
  const bool observing = recorder_ != nullptr || tracer_ != nullptr;
  const bool stamped = request.sent_at != sim::TimePoint{};
  Timeline timeline{.origin = stamped ? request.sent_at : ctx.received_at,
                    .received_at = ctx.received_at};
  if (stamped) {
    timeline.add(metrics::Span::kFabricTransfer, request.sent_at,
                 request.deliver_at);
  }
  if (ctx.dequeued_at > ctx.received_at) {
    timeline.add(metrics::Span::kAdmissionWait, ctx.received_at,
                 ctx.dequeued_at);
  }

  // Deadline propagation: the frame carries one deadline (the tightest of
  // its ops'). If it passed in flight the client has already given up, so
  // every op is expired on arrival: a cheap kBusy reply without side
  // effects, before paying the slab/SSD phase. A client that raced its own
  // deadline treats it exactly like the timeout it was about to declare.
  if (frame.deadline_ns != 0 &&
      sim::now().time_since_epoch().count() > frame.deadline_ns) {
    metrics.add(&ServerCounters::expired_on_arrival, ops.size());
    release_slot();
    reply_all(request, frame, StatusCode::kBusy);
    record_stages(timeline.stages);
    return;
  }

  // Store phase: each op runs through the same dispatch, whatever the frame
  // shape, and its reply joins the frame's one reply. A plain frame keeps
  // its one outcome on the stack. On the async server a plain GET or GETS
  // found on the SSD is deferred: the op is counted here, and a completion
  // thread reads the pinned record and replies. Batch frames read the SSD
  // inline: their one reply waits for every op anyway.
  OpOutcome one;
  std::vector<OpOutcome> many(frame.batched() ? ops.size() : 0);
  const std::span<OpOutcome> outcomes =
      many.empty() ? std::span<OpOutcome>(&one, 1) : std::span<OpOutcome>(many);
  timeline.store_start = observing ? sim::now() : sim::TimePoint{};
  store::PendingRead pending;
  store::PendingRead* const defer =
      config_.async_processing && !frame.batched() ? &pending : nullptr;
  ReplyWriter reply(frame);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpOutcome& outcome = outcomes[i];
    outcome.traced = tracer_ != nullptr && tracer_->sample(outcome.seq);
    std::vector<char> value;
    const OpResult result =
        execute_op(ops[i].opcode, ops[i].payload, value, defer);
    metrics.add(kOpCounters[static_cast<std::size_t>(result.op)]);
    outcome.op = result.op;
    outcome.status = result.status;
    if (result.status == StatusCode::kInProgress) {
      deferred_.push(DeferredGet{.read = std::move(pending),
                                 .src = request.src,
                                 .wr_id = request.wr_id,
                                 .opcode = ops[i].opcode,
                                 .timeline = timeline,
                                 .outcome = outcome});
      return;
    }
    reply.add(ops[i].wr_id, result.status, result.flags,
              result.has_value ? std::span<const char>(value)
                               : std::span<const char>{});
  }
  respond(request.src, request.wr_id, reply, timeline, outcomes);
}

void MemcachedServer::respond(net::EndpointId dst, std::uint64_t wr_id,
                              const ReplyWriter& reply, Timeline& timeline,
                              std::span<const OpOutcome> outcomes) {
  // Response: one reply, one doorbell, for the whole frame.
  metrics::LatencyRecorder* const recorder = recorder_.get();
  const bool observing = recorder != nullptr || tracer_ != nullptr;
  const sim::TimePoint response_start =
      observing ? sim::now() : sim::TimePoint{};
  HYKV_DEBUG("server %llu handled wr=%llu ops=%zu",
             static_cast<unsigned long long>(endpoint_->id()),
             static_cast<unsigned long long>(wr_id), outcomes.size());
  release_slot();
  endpoint_->send(dst, reply.opcode(), wr_id, reply.payload());
  if (!observing) return;

  const sim::TimePoint response_end = sim::now();
  timeline.add(metrics::Span::kStorePhase, timeline.store_start,
               response_start);
  timeline.add(metrics::Span::kResponse, response_start, response_end);
  record_stages(timeline.stages);
  // Each op's latency is receipt -> reply sent, which keeps the METRICS.md
  // balance: the op counts sum to requests - shed - expired_on_arrival.
  for (const OpOutcome& outcome : outcomes) {
    if (recorder != nullptr) {
      recorder->record_op(outcome.op,
                          metrics::delta_ns(timeline.received_at, response_end));
    }
    if (outcome.traced) {
      metrics::Trace trace = timeline.stages;
      trace.seq = outcome.seq;
      trace.op = outcome.op;
      trace.status = static_cast<std::uint8_t>(outcome.status);
      trace.start_ns = static_cast<std::uint64_t>(std::max<std::int64_t>(
          timeline.origin.time_since_epoch().count(), 0));
      trace.total_ns = metrics::delta_ns(timeline.origin, response_end);
      tracer_->publish(trace);
    }
  }
}

void MemcachedServer::record_stages(const metrics::Trace& stages) {
  if (recorder_ == nullptr) return;
  for (std::uint32_t i = 0; i < stages.span_count; ++i) {
    recorder_->record_span(stages.spans[i].span, stages.spans[i].duration_ns);
  }
}

void MemcachedServer::reply_all(const net::Message& request,
                                const RequestFrame& frame, StatusCode status) {
  ReplyWriter reply(frame);
  for (const BatchItem& op : frame.ops()) reply.add(op.wr_id, status, 0);
  endpoint_->send(request.src, reply.opcode(), request.wr_id,
                  reply.payload());
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
