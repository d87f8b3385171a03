#include "client/client.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.hpp"
#include "common/sim_time.hpp"
#include "server/protocol.hpp"

namespace hykv::client {

using server::Opcode;

namespace {
/// Exponential backoff between retries of a blocking op: the first wait,
/// doubled up to the cap. Backoff never extends past the op deadline.
constexpr sim::Nanos kRetryBackoff = sim::ms(1);
constexpr sim::Nanos kRetryBackoffMax = sim::ms(8);
/// Byte bound on one batch frame's accumulated key+value payload: the TX
/// engine closes a frame early when the next op would exceed it.
constexpr std::size_t kBatchMaxBytes = std::size_t{256} << 10;
}  // namespace

Client::Client(net::Fabric& fabric, ClientConfig config, BackendDb* backend)
    : fabric_(fabric),
      config_(std::move(config)),
      backend_(backend),
      endpoint_(fabric_.create_endpoint(config_.name)),
      ring_(config_.servers, 160, config_.failover),
      latency_(config_.record_latency
                   ? std::make_unique<metrics::LatencyRecorder>(4)
                   : nullptr),
      retry_tokens_(config_.retry_budget) {
  scratch_.resize(config_.bounce_slot_bytes);
  assert(!config_.use_backend_on_miss || backend_ != nullptr);
  // Pre-register the bounce pool: the cold ibv_reg_mr cost is paid once at
  // startup, which is exactly why bset can afford buffer-reuse semantics.
  slots_.reserve(config_.bounce_slots);
  for (std::size_t i = 0; i < config_.bounce_slots; ++i) {
    slots_.push_back(std::make_unique<char[]>(config_.bounce_slot_bytes));
    endpoint_->register_memory(slots_.back().get(), config_.bounce_slot_bytes);
    free_slots_.push(static_cast<int>(i));
  }
  endpoint_->register_memory(scratch_.data(), scratch_.size());
  tx_thread_ = std::thread([this] { tx_main(); });
  rx_thread_ = std::thread([this] { rx_main(); });
}

Client::~Client() {
  {
    const MutexLock lock(pending_mu_);
    closed_ = true;
  }
  tx_queue_.close();   // TX drains remaining jobs, then exits
  if (tx_thread_.joinable()) tx_thread_.join();
  endpoint_->close();  // unblocks RX in recv()
  {
    const MutexLock lock(progress_mu_);
    rx_stop_ = true;   // unparks RX
  }
  progress_cv_.notify_all();
  if (rx_thread_.joinable()) rx_thread_.join();
  complete_all_pending(StatusCode::kShutdown);
  free_slots_.close();
}

void Client::complete_all_pending(StatusCode status) {
  std::unordered_map<std::uint64_t, Pending> orphans;
  {
    const MutexLock lock(pending_mu_);
    orphans.swap(pending_);
    pending_per_server_.clear();  // every window occupant is being orphaned
  }
  for (auto& [wr_id, pend] : orphans) {
    if (pend.slot >= 0) free_slots_.push(pend.slot);
    signal_completion(*pend.req, status, 0, 0);
  }
}

void Client::tx_main() {
  // Request-frame bytes a job contributes to a coalesced run.
  const auto wire_payload_bytes = [](const TxJob& job) {
    return job.op.key.size() + job.op.value.size();
  };
  // Doorbell batching (DESIGN.md §12): after the blocking pop, the engine
  // opportunistically drains whatever else is already queued and coalesces
  // consecutive same-server jobs -- up to batch_max_ops / kBatchMaxBytes --
  // into one batch frame. A job bound for a *different* server closes the
  // current run and carries over as the seed of the next one, preserving
  // per-server FIFO order. With batch_max_ops <= 1 (the default) every run
  // holds one job and goes out as a plain frame, byte for byte the
  // pre-batching wire behaviour.
  std::optional<TxJob> carry;
  std::vector<TxJob> run;
  while (true) {
    std::optional<TxJob> job =
        carry.has_value() ? std::exchange(carry, std::nullopt)
                          : tx_queue_.pop();
    if (!job.has_value()) break;
    run.clear();
    std::size_t run_bytes = wire_payload_bytes(*job);
    run.push_back(*std::move(job));
    while (run.size() < config_.batch_max_ops) {
      std::optional<TxJob> next = tx_queue_.try_pop();
      if (!next.has_value()) break;  // queue momentarily empty: ship the run
      if (next->server != run.front().server) {
        carry = std::move(next);  // different server closes the run
        break;
      }
      const std::size_t next_bytes = wire_payload_bytes(*next);
      if (run_bytes + next_bytes > kBatchMaxBytes) {
        carry = std::move(next);
        break;
      }
      run_bytes += next_bytes;
      run.push_back(*std::move(next));
    }
    post(run);
    // NOTE: the responses may already be in flight (or even processed), so
    // the requests may only be touched via the pending map.
    for (const TxJob& sent : run) signal_sent(sent.wr_id);
    // Only now may an inline post on the application thread go ahead: the
    // run is on the wire, so the next frame cannot overtake it.
    tx_backlog_.fetch_sub(run.size(), std::memory_order_release);
  }
}

Client::TxJob Client::make_job(std::uint16_t opcode, net::EndpointId server,
                               const server::OpRequest& op,
                               std::span<char> dest) {
  TxJob job;
  job.opcode = opcode;
  job.server = server;
  job.dest = dest;
  job.owned.reserve(op.key.size() + op.value.size());
  job.owned.insert(job.owned.end(), op.key.begin(), op.key.end());
  job.owned.insert(job.owned.end(), op.value.begin(), op.value.end());
  job.op = op;
  job.op.key = std::string_view(job.owned.data(), op.key.size());
  job.op.value = std::span<const char>(job.owned).subspan(op.key.size());
  return job;
}

void Client::post(std::span<const TxJob> run) {
  server::RequestWriter frame(run.size());
  for (const TxJob& job : run) {
    // Model the engine-side registration of each op's source and
    // destination buffers (the registration cache makes repeats nearly
    // free): a batch frame amortises only the per-message costs.
    const std::span<const char> buffers[] = {job.op.value, job.dest};
    for (const std::span<const char> buffer : buffers) {
      if (!buffer.empty()) {
        endpoint_->register_memory(buffer.data(), buffer.size());
      }
    }
    // The value is read here, on the engine thread for an iset: this is
    // the zero-copy hazard window the iset documentation warns about.
    frame.add(job.opcode, job.wr_id, job.deadline_ns,
              server::encode_request(job.op));
  }
  if (run.size() > 1) {
    // Count before posting: once the frame is on the wire its ops can
    // complete and a caller may read counters() before this thread runs
    // again, so counting after the send would under-report against the
    // server's view.
    counters_.add(&ClientCounters::batches_sent);
    counters_.add(&ClientCounters::batched_ops, run.size());
  }
  const server::OutgoingFrame out = std::move(frame).finish();
  endpoint_->send(run.front().server, out.opcode, out.wr_id, out.payload);
  HYKV_DEBUG("client %llu tx wr=%llu op=%u to=%llu ops=%zu bytes=%zu",
             static_cast<unsigned long long>(endpoint_->id()),
             static_cast<unsigned long long>(out.wr_id), out.opcode,
             static_cast<unsigned long long>(run.front().server), run.size(),
             out.payload.size());
}

void Client::rx_main() {
  while (true) {
    {
      const MutexLock lock(progress_mu_);
      progress_cv_.wait(progress_mu_, [this]() REQUIRES(progress_mu_) {
        return rx_stop_ ||
               (progress_ == Progress::kFree && pending_requests() > 0);
      });
      if (rx_stop_) break;
      progress_ = Progress::kRx;
    }
    // Keep the token until nothing is pending: background completion for
    // iset/iget the application only test()s (Fig 7(a)'s overlap).
    while (true) {
      auto msg = endpoint_->recv();
      if (!msg.ok()) return;  // closed and drained: shutdown
      dispatch(msg.value());
      const MutexLock lock(progress_mu_);
      if (pending_requests() == 0) {
        progress_ = Progress::kFree;
        break;
      }
    }
  }
  // Shutdown while parked: complete whatever replies are still queued
  // before the destructor fails the rest with kShutdown.
  while (true) {
    auto msg = endpoint_->recv();
    if (!msg.ok()) break;
    dispatch(msg.value());
  }
}

std::size_t Client::dispatch(const net::Message& reply) {
  // Each op's reply carries its own wr_id, so completion is the same
  // whether the ops came back one per frame or batched.
  const auto frame = server::open_reply(reply.opcode, reply.wr_id, reply.payload);
  if (!frame.has_value()) {
    HYKV_WARN("client %llu: unreadable reply (opcode %u, %zu bytes)",
              static_cast<unsigned long long>(endpoint_->id()),
              static_cast<unsigned>(reply.opcode), reply.payload.size());
    return 0;  // affected ops will time out and cancel individually
  }
  std::size_t completed = 0;
  for (const server::BatchResponseItem& op : frame->ops()) {
    if (complete_one(op.wr_id, op.payload)) ++completed;
  }
  return completed;
}

bool Client::take_progress() {
  const MutexLock lock(progress_mu_);
  if (progress_ != Progress::kFree) return false;
  progress_ = Progress::kCaller;
  return true;
}

void Client::release_progress() {
  const MutexLock lock(progress_mu_);
  progress_ = Progress::kFree;
  if (pending_requests() > 0) progress_cv_.notify_one();
}

bool Client::caller_holds_progress() {
  const MutexLock lock(progress_mu_);
  return progress_ == Progress::kCaller;
}

void Client::wake_progress() {
  const MutexLock lock(progress_mu_);
  if (progress_ == Progress::kFree) progress_cv_.notify_one();
}

bool Client::progress_once(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  Result<net::Message> msg = StatusCode::kTimedOut;
  if (!deadline.has_value()) {
    msg = endpoint_->recv();
  } else {
    const auto left = *deadline - std::chrono::steady_clock::now();
    if (left <= left.zero()) return false;
    msg = endpoint_->recv_for(std::chrono::duration_cast<sim::Nanos>(left));
  }
  if (!msg.ok()) return false;
  const std::size_t completed = dispatch(msg.value());
  if (completed > 0) {
    counters_.add(&ClientCounters::caller_completions, completed);
  }
  return true;
}

bool Client::complete_one(std::uint64_t wr_id,
                          std::span<const char> response_bytes) {
  const auto resp = server::decode_response(response_bytes);

  Pending pend;
  {
    const MutexLock lock(pending_mu_);
    auto it = pending_.find(wr_id);
    if (it == pending_.end()) {
      HYKV_WARN("client %llu: stale response wr=%llu",
                static_cast<unsigned long long>(endpoint_->id()),
                static_cast<unsigned long long>(wr_id));
      return false;
    }
    pend = it->second;
    pending_.erase(it);
  }
  release_pending_window(pend.server);

  StatusCode status = resp.has_value() ? resp->status : StatusCode::kServerError;
  std::uint32_t flags = resp.has_value() ? resp->flags : 0;
  std::size_t value_len = 0;
  if (pend.is_get && resp.has_value() && ok(status)) {
    value_len = resp->value.size();
    if (value_len <= pend.req->dest_.size()) {
      // The engine places the fetched value straight into the user's
      // buffer (the RDMA-write-into-destination step).
      std::memcpy(pend.req->dest_.data(), resp->value.data(), value_len);
    } else {
      status = StatusCode::kBufferTooSmall;
    }
  }
  if (pend.is_get) {
    if (ok(status)) {
      counters_.add(&ClientCounters::hits);
    } else if (status == StatusCode::kNotFound) {
      counters_.add(&ClientCounters::misses);
    }
  }
  if (pend.slot >= 0) free_slots_.push(pend.slot);
  note_response(status);
  // Any response proves the server is alive: clear its failure streak
  // (and readmit it if a probe just succeeded). A kBusy response counts
  // too -- a busy server is alive, not dead.
  ring_.record_success(pend.server);
  HYKV_DEBUG("client %llu rx wr=%llu status=%u",
             static_cast<unsigned long long>(endpoint_->id()),
             static_cast<unsigned long long>(wr_id),
             static_cast<unsigned>(status));
  signal_completion(*pend.req, status, flags, value_len);
  return true;
}

void Client::signal_completion(Request& req, StatusCode status,
                               std::uint32_t flags, std::size_t value_len) {
  // Issue->complete latency: recorded for every terminal status (a timeout
  // is a completion the caller observed too). Reading the request here is
  // safe -- publish_completion below is what releases it to its owner.
  if (latency_ != nullptr && req.issued_at_ != sim::TimePoint{}) {
    latency_->record_op(server::op_class(req.opcode_),
                        metrics::delta_ns(req.issued_at_, sim::now()));
  }
  req.publish_completion(status, flags, value_len);
  // After this point `req` may be gone: the lock-unlock pairs with a waiter
  // between its predicate check and its sleep (lost-wakeup prevention); the
  // notify touches only the client-owned cv.
  { const MutexLock lock(completion_mu_); }
  completion_cv_.notify_all();
}

void Client::signal_sent(std::uint64_t wr_id) {
  {
    const MutexLock lock(pending_mu_);
    auto it = pending_.find(wr_id);
    // Entry gone => the request already completed (done_ implies sent);
    // its owner may have destroyed it, so it must not be dereferenced.
    if (it == pending_.end()) return;
    it->second.req->sent_.store(true, std::memory_order_release);
  }
  { const MutexLock lock(completion_mu_); }
  completion_cv_.notify_all();
}

StatusCode Client::issue(TxJob job, Request& req, int slot, bool is_get,
                         Post how) {
  req.reset(job.dest);
  req.server_ = job.server;
  req.opcode_ = job.opcode;
  // Latency stamp before the request becomes reachable from the pending map
  // (the completing thread reads it; see request.hpp).
  if (latency_ != nullptr) req.issued_at_ = sim::now();
  if (!ring_.accepting(job.server)) {
    // Target is ejected and not yet due for a probe: fail fast instead of
    // letting the request burn its whole deadline against a dead server.
    counters_.add(&ClientCounters::server_down);
    return StatusCode::kServerDown;
  }
  std::uint64_t wr_id = 0;
  bool window_full = false;
  {
    const MutexLock lock(pending_mu_);
    if (closed_) return StatusCode::kShutdown;
    if (config_.max_pending_per_server > 0) {
      std::size_t& inflight = pending_per_server_[job.server];
      if (inflight >= config_.max_pending_per_server) {
        window_full = true;
      } else {
        ++inflight;
      }
    }
    if (!window_full) {
      wr_id = wr_id_seq_++;
      pending_.emplace(wr_id, Pending{.req = &req,
                                      .slot = slot,
                                      .is_get = is_get,
                                      .server = job.server});
    }
  }
  if (window_full) {
    // Fail fast at the source: the caller learns immediately that this
    // server's window is saturated instead of queueing yet more work.
    counters_.add(&ClientCounters::busy_fail_fast);
    return StatusCode::kBusy;
  }
  // A blocking caller already holds the token, so this wakes nobody.
  wake_progress();
  if (config_.propagate_deadline && config_.op_deadline.count() > 0) {
    job.deadline_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          (std::chrono::steady_clock::now() +
                           config_.op_deadline).time_since_epoch())
                          .count();
  }
  job.wr_id = wr_id;
  req.wr_id_ = wr_id;
  if (how == Post::kInlineWhenIdle &&
      tx_backlog_.load(std::memory_order_acquire) == 0) {
    // The caller blocks on this op anyway and nothing is queued ahead of
    // it: post on this thread instead of waking the TX engine and then
    // being woken by it. The caller owns `req`, so marking it sent after
    // the post is safe even if the response already completed it.
    post(std::span<const TxJob>(&job, 1));
    req.sent_.store(true, std::memory_order_release);
    return StatusCode::kOk;
  }
  const net::EndpointId server = job.server;
  tx_backlog_.fetch_add(1, std::memory_order_relaxed);
  if (!tx_queue_.push(std::move(job))) {
    tx_backlog_.fetch_sub(1, std::memory_order_relaxed);
    {
      const MutexLock lock(pending_mu_);
      pending_.erase(wr_id);
    }
    release_pending_window(server);
    return StatusCode::kShutdown;
  }
  return StatusCode::kOk;
}

StatusCode Client::iset(std::string_view key, std::span<const char> value,
                        std::uint32_t flags, std::int64_t expiration,
                        Request& req) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  counters_.add(&ClientCounters::nonblocking_issued);
  TxJob job = make_job(Opcode::kOpSet, ring_.select(key),
                       {.key = key, .flags = flags, .expiration = expiration});
  job.op.value = value;  // zero copy: user must not touch until completion
  return issue(std::move(job), req, /*slot=*/-1, /*is_get=*/false,
               Post::kQueued);
}

StatusCode Client::start_set(std::string_view key, std::span<const char> value,
                             std::uint32_t flags, std::int64_t expiration,
                             Request& req) {
  // A value too large for the pool falls back to a private copy in the job
  // (cold registration will be paid by whichever thread posts it).
  const bool staged = value.size() <= config_.bounce_slot_bytes;
  TxJob job = make_job(Opcode::kOpSet, ring_.select(key),
                       {.key = key,
                        .value = staged ? std::span<const char>{} : value,
                        .flags = flags,
                        .expiration = expiration});
  int slot = -1;
  if (staged) {
    // Acquire a pre-registered bounce slot; blocks while the pool is fully
    // in flight (this is the bounded-outstanding-writes backpressure).
    // Completions free slots, so a caller holding the progress token pops
    // replies itself until one is free.
    auto acquired = free_slots_.try_pop();
    while (!acquired.has_value() && caller_holds_progress() &&
           progress_once(std::nullopt)) {
      acquired = free_slots_.try_pop();
    }
    if (!acquired.has_value()) acquired = free_slots_.pop();
    if (!acquired.has_value()) return StatusCode::kShutdown;
    slot = *acquired;
    char* buffer = slots_[static_cast<std::size_t>(slot)].get();
    std::memcpy(buffer, value.data(), value.size());
    job.op.value = std::span<const char>(buffer, value.size());
  }
  const StatusCode code = issue(std::move(job), req, slot, /*is_get=*/false);
  if (!ok(code)) {
    if (slot >= 0) free_slots_.push(slot);
    return code;
  }
  // "Waits for the engine to communicate that it has sent out the data."
  // Until then a queued job still reads the bounce slot, and a cancel()
  // (deadline) would hand the slot to the next set while it does. An inline
  // post is already sent, so this returns at once.
  park_until([&req] { return req.sent(); });
  return StatusCode::kOk;
}

StatusCode Client::bset(std::string_view key, std::span<const char> value,
                        std::uint32_t flags, std::int64_t expiration,
                        Request& req) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  counters_.add(&ClientCounters::nonblocking_issued);
  return start_set(key, value, flags, expiration, req);
}

StatusCode Client::start_get(std::string_view key, std::span<char> dest,
                             Request& req, Post how) {
  return issue(make_job(Opcode::kOpGet, ring_.select(key), {.key = key}, dest),
               req, /*slot=*/-1, /*is_get=*/true, how);
}

StatusCode Client::iget(std::string_view key, std::span<char> dest, Request& req) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  counters_.add(&ClientCounters::nonblocking_issued);
  return start_get(key, dest, req, Post::kQueued);
}

StatusCode Client::bget(std::string_view key, std::span<char> dest, Request& req) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  counters_.add(&ClientCounters::nonblocking_issued);
  const StatusCode code = start_get(key, dest, req);
  if (!ok(code)) return code;
  // Key buffer reusable once the header has left the engine.
  park_until([&req] { return req.sent(); });
  return StatusCode::kOk;
}

void Client::wait(Request& req) {
  if (config_.op_deadline.count() > 0) {
    // Termination guarantee: with a deadline configured, wait() can never
    // hang on a lost request -- it cancels to kTimedOut at the deadline.
    (void)wait_for(req, config_.op_deadline);
    return;
  }
  const CallerProgress progress(*this);
  (void)await(req, progress.held(), std::nullopt);
}

StatusCode Client::wait_for(Request& req, sim::Nanos timeout) {
  const CallerProgress progress(*this);
  return await(req, progress.held(), std::chrono::steady_clock::now() + timeout);
}

StatusCode Client::await(
    Request& req, bool driving,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  const sim::TimePoint start = metrics::span_start(latency_.get());
  // The token holder is the only thread popping replies, so nobody else
  // completes `req`: pop until it is done (or the deadline passes).
  while (driving && !req.done() && progress_once(deadline)) {
  }
  if (!deadline.has_value()) {
    park_until([&req] { return req.done(); });
  } else if (!req.done()) {
    const MutexLock lock(completion_mu_);
    completion_cv_.wait_until(completion_mu_, *deadline,
                              [&req] { return req.done(); });
  }
  metrics::record_since(latency_.get(), metrics::Span::kClientWait, start);
  if (req.done()) return req.status();
  return cancel(req);
}

StatusCode Client::run_attempts(
    Request& req, const std::function<StatusCode(Request&)>& issue_attempt,
    bool idempotent) {
  using Clock = std::chrono::steady_clock;
  const bool deadline_on = config_.op_deadline.count() > 0;
  const unsigned attempts_max =
      deadline_on && idempotent ? config_.max_retries + 1 : 1;
  const auto overall = Clock::now() + config_.op_deadline;
  sim::Nanos backoff = kRetryBackoff;
  StatusCode last = StatusCode::kTimedOut;
  net::EndpointId last_server = net::kInvalidEndpoint;

  for (unsigned attempt = 0; attempt < attempts_max; ++attempt) {
    if (attempt > 0) {
      // Every retry spends a shared token (config_.retry_budget); when the
      // bucket runs dry the last status stands -- under saturation the
      // client converges instead of amplifying load into a retry storm.
      if (!try_spend_retry_token()) break;
      counters_.add(&ClientCounters::retries);
    }
    {
      // Taken before the request is registered, so issuing it wakes no RX
      // thread: this caller pops its own reply. Handed back before any
      // backoff nap.
      const CallerProgress progress(*this);
      const StatusCode issued = issue_attempt(req);
      last_server = req.server_;
      if (issued == StatusCode::kServerDown || issued == StatusCode::kBusy) {
        // kServerDown: refused before posting (target ejected); a retry
        // re-selects and may fail over. kBusy: refused by the local
        // fail-fast window; backing off and retrying is exactly the right
        // response.
        last = issued;
      } else if (!ok(issued)) {
        return issued;  // kShutdown / kInvalidArgument: not retryable
      } else if (!deadline_on) {
        return await(req, progress.held(), std::nullopt);
      } else {
        // Split the remaining budget evenly over the attempts left so a
        // slow first attempt cannot starve the retries of wait time.
        const auto now = Clock::now();
        last = now >= overall
                   ? cancel(req)
                   : await(req, progress.held(),
                           now + (overall - now) / (attempts_max - attempt));
        if (last != StatusCode::kTimedOut &&
            last != StatusCode::kServerDown && last != StatusCode::kBusy) {
          return last;
        }
      }
    }
    if (attempt + 1 < attempts_max) {
      const auto now = Clock::now();
      if (now >= overall) break;
      const auto nap = std::min<Clock::duration>(backoff, overall - now);
      if (nap.count() > 0) std::this_thread::sleep_for(nap);
      backoff = std::min(backoff * 2, kRetryBackoffMax);
    }
  }
  if (last == StatusCode::kTimedOut &&
      last_server != net::kInvalidEndpoint && ring_.is_dead(last_server)) {
    return StatusCode::kServerDown;
  }
  return last;
}

StatusCode Client::run_into_scratch(
    Request& req, const std::function<StatusCode(Request&)>& issue_attempt) {
  StatusCode code = run_attempts(req, issue_attempt, /*idempotent=*/true);
  // Each pass grows scratch_ to the size the last reply needed. Only a
  // reply that grew in between -- a stats text, which counts the request
  // before it -- takes a second pass.
  while (code == StatusCode::kBufferTooSmall) {
    scratch_.resize(req.value_length());
    endpoint_->register_memory(scratch_.data(), scratch_.size());
    code = run_attempts(req, issue_attempt, /*idempotent=*/true);
  }
  return code;
}

StatusCode Client::set(std::string_view key, std::span<const char> value,
                       std::uint32_t flags, std::int64_t expiration) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  // Set is idempotent (last-writer-wins): safe to re-issue after a timeout.
  const StatusCode code = run_attempts(
      req,
      [&](Request& r) { return start_set(key, value, flags, expiration, r); },
      /*idempotent=*/true);
  counters_.add(&ClientCounters::sets);
  return code;
}

StatusCode Client::get(std::string_view key, std::vector<char>& out,
                       std::uint32_t* flags) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  const StatusCode code = run_into_scratch(
      req, attempt(Opcode::kOpGet, {.key = key}, /*into_scratch=*/true));
  counters_.add(&ClientCounters::gets);
  if (ok(code)) {
    out.assign(scratch_.begin(),
               scratch_.begin() + static_cast<std::ptrdiff_t>(req.value_length()));
    if (flags != nullptr) *flags = req.flags();
    return code;
  }
  if (code == StatusCode::kNotFound && config_.use_backend_on_miss) {
    // Cache-aside miss path: hit the backend database (the paper's
    // "Miss Penalty" stage), then re-populate the cache.
    const sim::TimePoint miss_start = metrics::span_start(latency_.get());
    auto value = backend_->fetch(key);
    metrics::record_since(latency_.get(), metrics::Span::kMissPenalty,
                          miss_start);
    counters_.add(&ClientCounters::backend_fetches);
    if (!value.has_value()) return StatusCode::kNotFound;
    out = std::move(*value);
    if (flags != nullptr) *flags = 0;
    (void)set(key, out, 0, 0);  // best-effort repopulation
    return StatusCode::kOk;
  }
  return code;
}

std::function<StatusCode(Request&)> Client::attempt(std::uint16_t opcode,
                                                   const server::OpRequest& op,
                                                   bool into_scratch,
                                                   net::EndpointId server) {
  return [this, opcode, op, into_scratch, server](Request& req) {
    const net::EndpointId target =
        server != net::kInvalidEndpoint ? server : ring_.select(op.key);
    return issue(make_job(opcode, target, op,
                          into_scratch ? std::span<char>(scratch_)
                                       : std::span<char>{}),
                 req, /*slot=*/-1, /*is_get=*/into_scratch);
  };
}

StatusCode Client::del(std::string_view key) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  // Delete is idempotent (deleting twice deletes once).
  const StatusCode code = run_attempts(
      req, attempt(Opcode::kOpDelete, {.key = key}), /*idempotent=*/true);
  counters_.add(&ClientCounters::deletes);
  return code;
}

// add/replace/append/prepend/incr/decr/cas are NOT idempotent: a timed-out
// first attempt may have been applied server-side, so re-issuing could
// double-apply (append twice, incr twice, add observing its own first
// attempt). They get the deadline's termination guarantee but never retry.

StatusCode Client::store_op(std::uint16_t opcode, const server::OpRequest& op) {
  if (op.key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  return run_attempts(req, attempt(opcode, op), /*idempotent=*/false);
}

StatusCode Client::add(std::string_view key, std::span<const char> value,
                       std::uint32_t flags, std::int64_t expiration) {
  return store_op(Opcode::kOpAdd, {.key = key,
                                   .value = value,
                                   .flags = flags,
                                   .expiration = expiration});
}

StatusCode Client::replace(std::string_view key, std::span<const char> value,
                           std::uint32_t flags, std::int64_t expiration) {
  return store_op(Opcode::kOpReplace, {.key = key,
                                       .value = value,
                                       .flags = flags,
                                       .expiration = expiration});
}

StatusCode Client::append(std::string_view key, std::span<const char> suffix) {
  return store_op(Opcode::kOpAppend, {.key = key, .value = suffix});
}

StatusCode Client::prepend(std::string_view key, std::span<const char> prefix) {
  return store_op(Opcode::kOpPrepend, {.key = key, .value = prefix});
}

StatusCode Client::cas(std::string_view key, std::span<const char> value,
                       std::uint64_t cas_token, std::uint32_t flags,
                       std::int64_t expiration) {
  return store_op(Opcode::kOpCas, {.key = key,
                                   .value = value,
                                   .flags = flags,
                                   .expiration = expiration,
                                   .arg = cas_token});
}

Result<std::uint64_t> Client::counter_op(std::uint16_t opcode,
                                         std::string_view key,
                                         std::uint64_t delta) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  const StatusCode code =
      run_attempts(req,
                   attempt(opcode, {.key = key, .arg = delta},
                           /*into_scratch=*/true),
                   /*idempotent=*/false);
  if (!ok(code)) return code;
  const auto value = server::decode_counter_value(
      std::span<const char>(scratch_.data(), req.value_length()));
  if (!value.has_value()) return StatusCode::kServerError;
  return *value;
}

Result<std::uint64_t> Client::incr(std::string_view key, std::uint64_t delta) {
  return counter_op(Opcode::kOpIncr, key, delta);
}

Result<std::uint64_t> Client::decr(std::string_view key, std::uint64_t delta) {
  return counter_op(Opcode::kOpDecr, key, delta);
}

StatusCode Client::touch(std::string_view key, std::int64_t expiration) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  // Touch is idempotent: refreshing the expiration twice lands on the same
  // absolute deadline.
  return run_attempts(
      req, attempt(Opcode::kOpTouch, {.key = key, .expiration = expiration}),
      /*idempotent=*/true);
}

StatusCode Client::flush_all() {
  StatusCode worst = StatusCode::kOk;
  for (const net::EndpointId server : ring_.servers()) {
    Request req;
    // Pinned to one explicit server (no ring selection): a retry targets
    // the same server again -- failing over a flush makes no sense.
    const StatusCode code = run_attempts(
        req, attempt(Opcode::kOpFlushAll, {}, /*into_scratch=*/false, server),
        /*idempotent=*/true);
    if (code == StatusCode::kShutdown) return code;
    if (!ok(code)) worst = code;
  }
  return worst;
}

Result<std::string> Client::stats_text(std::size_t server_index,
                                       StatsKind kind) {
  if (server_index >= ring_.servers().size()) return StatusCode::kInvalidArgument;
  // The typed kind maps onto the wire-level subcommand strings the server
  // has always understood.
  std::string_view what;
  switch (kind) {
    case StatsKind::kCounters: break;
    case StatsKind::kLatency: what = "latency"; break;
    case StatsKind::kTrace: what = "trace"; break;
    default: return StatusCode::kInvalidArgument;
  }
  Request req;
  const StatusCode code = run_into_scratch(
      req, attempt(Opcode::kOpStats, {.key = what}, /*into_scratch=*/true,
                   ring_.servers()[server_index]));
  if (!ok(code)) return code;
  return std::string(scratch_.data(), req.value_length());
}

StatusCode Client::gets(std::string_view key, std::vector<char>& out,
                        std::uint32_t* flags, std::uint64_t* cas) {
  if (key.empty()) return StatusCode::kInvalidArgument;
  Request req;
  const StatusCode code = run_into_scratch(
      req, attempt(Opcode::kOpGets, {.key = key}, /*into_scratch=*/true));
  if (!ok(code)) return code;
  if (req.value_length() < 8) return StatusCode::kServerError;
  std::uint64_t token = 0;
  std::memcpy(&token, scratch_.data(), 8);
  if (cas != nullptr) *cas = token;
  if (flags != nullptr) *flags = req.flags();
  out.assign(scratch_.begin() + 8,
             scratch_.begin() + static_cast<std::ptrdiff_t>(req.value_length()));
  return StatusCode::kOk;
}

std::vector<Result<std::vector<char>>> Client::mget_status(
    std::span<const std::string> keys) {
  std::vector<Result<std::vector<char>>> results(
      keys.size(), Result<std::vector<char>>(StatusCode::kInvalidArgument));
  if (keys.empty()) return results;
  // One request + destination buffer per key, all in flight at once --
  // the whole point of mget over a loop of blocking gets. Issue order is
  // grouped by target server so that with batching enabled (batch_max_ops
  // > 1) the TX engine coalesces each server's gets into one batch frame
  // instead of interleaving servers and fragmenting the runs.
  std::vector<std::size_t> order;
  order.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i].empty()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this, keys](std::size_t a, std::size_t b) {
                     return ring_.select(keys[a]) < ring_.select(keys[b]);
                   });
  std::vector<std::unique_ptr<Request>> requests(keys.size());
  std::vector<std::vector<char>> dests(keys.size());
  // Allocate every destination before issuing anything: zeroing
  // bounce_slot_bytes per key inside the issue loop would throttle the
  // issuer below the TX engine's drain rate and starve the coalescer.
  for (const std::size_t i : order) {
    requests[i] = std::make_unique<Request>();
    dests[i].resize(config_.bounce_slot_bytes);
  }
  for (const std::size_t i : order) {
    const StatusCode issued =
        start_get(keys[i], dests[i], *requests[i], Post::kQueued);
    if (!ok(issued)) {
      results[i] = Result<std::vector<char>>(issued);
      requests[i].reset();
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (requests[i] == nullptr) continue;
    Request& req = *requests[i];
    wait(req);
    StatusCode status = req.status();
    if (status == StatusCode::kBufferTooSmall) {
      // Larger than a bounce slot (set stored it through its private-copy
      // fallback): fetch it again the way a blocking get does.
      status = run_into_scratch(
          req,
          attempt(Opcode::kOpGet, {.key = keys[i]}, /*into_scratch=*/true));
      if (ok(status)) {
        dests[i].assign(scratch_.begin(),
                        scratch_.begin() +
                            static_cast<std::ptrdiff_t>(req.value_length()));
      }
    }
    if (ok(status)) {
      dests[i].resize(req.value_length());
      results[i] = Result<std::vector<char>>(std::move(dests[i]));
    } else {
      // kNotFound (a genuine miss) stays distinguishable from kTimedOut /
      // kBusy / kServerDown -- the distinction mget() used to flatten away.
      results[i] = Result<std::vector<char>>(status);
    }
  }
  return results;
}

std::vector<std::optional<std::vector<char>>> Client::mget(
    std::span<const std::string> keys) {
  // Compatibility shape: every non-kOk outcome (miss, timeout, busy, down)
  // flattens to nullopt. Callers that care use mget_status directly.
  std::vector<Result<std::vector<char>>> detailed = mget_status(keys);
  std::vector<std::optional<std::vector<char>>> results(keys.size());
  for (std::size_t i = 0; i < detailed.size(); ++i) {
    if (detailed[i].ok()) results[i] = std::move(detailed[i]).value();
  }
  return results;
}

StatusCode Client::cancel(Request& req) {
  if (req.done()) return req.status();
  bool removed = false;
  net::EndpointId server = net::kInvalidEndpoint;
  {
    const MutexLock lock(pending_mu_);
    auto it = pending_.find(req.wr_id_);
    if (it != pending_.end() && it->second.req == &req) {
      if (it->second.slot >= 0) free_slots_.push(it->second.slot);
      server = it->second.server;
      pending_.erase(it);
      removed = true;
    }
  }
  if (removed) {
    release_pending_window(server);
    // A true cancellation is a strike against the target server: enough
    // consecutive ones eject it from the ring (failover).
    ring_.record_failure(server);
    counters_.add(&ClientCounters::timeouts);
    signal_completion(req, StatusCode::kTimedOut, 0, 0);
    return StatusCode::kTimedOut;
  }
  // The RX thread is completing it right now; wait for the verdict.
  park_until([&req] { return req.done(); });
  return req.status();
}

ClientCounters Client::counters() const { return counters_.snapshot(); }

bool Client::try_spend_retry_token() {
  if (config_.retry_budget == 0) return true;  // unlimited
  std::uint64_t tokens = retry_tokens_.load(std::memory_order_relaxed);
  do {
    if (tokens == 0) {
      counters_.add(&ClientCounters::retry_budget_exhausted);
      return false;
    }
  } while (!retry_tokens_.compare_exchange_weak(tokens, tokens - 1,
                                                std::memory_order_relaxed));
  return true;
}

void Client::note_response(StatusCode status) {
  if (status == StatusCode::kBusy) {
    counters_.add(&ClientCounters::busy);
    return;
  }
  // A completed (non-busy) round trip refunds one retry token, capped at the
  // configured budget: a healthy cluster keeps its full retry allowance.
  if (config_.retry_budget == 0) return;
  std::uint64_t tokens = retry_tokens_.load(std::memory_order_relaxed);
  while (tokens < config_.retry_budget &&
         !retry_tokens_.compare_exchange_weak(tokens, tokens + 1,
                                              std::memory_order_relaxed)) {
  }
}

void Client::release_pending_window(net::EndpointId server) {
  if (config_.max_pending_per_server == 0) return;
  const MutexLock lock(pending_mu_);
  auto it = pending_per_server_.find(server);
  if (it == pending_per_server_.end()) return;
  if (--it->second == 0) pending_per_server_.erase(it);
}

LatencyHistogram Client::op_latency(metrics::Op op) const {
  return latency_ != nullptr ? latency_->op_histogram(op) : LatencyHistogram{};
}

LatencyHistogram Client::span_latency(metrics::Span span) const {
  return latency_ != nullptr ? latency_->span_histogram(span)
                             : LatencyHistogram{};
}

void Client::reset_metrics() {
  counters_.reset();
  retry_tokens_.store(config_.retry_budget, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->reset();
}

}  // namespace hykv::client
