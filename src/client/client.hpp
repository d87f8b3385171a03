// The hykv client library -- a libmemcached work-alike with the paper's
// non-blocking extensions (Listing 1 / Section IV):
//
//   blocking   : set / get / del              (memcached_set / _get)
//   issue-only : iset / iget                  (memcached_iset / _iget)
//   buffer-safe: bset / bget                  (memcached_bset / _bget)
//   completion : wait / test                  (memcached_wait / _test)
//
// Semantics, mirrored from the paper:
//  - iset/iget return as soon as the request is posted to the RDMA engine.
//    The user's key/value buffers MUST NOT be touched until completion: the
//    engine reads them asynchronously (zero copy).
//  - bset copies the value into a pre-registered bounce buffer from a bounded
//    pool, so the user's buffers are reusable the moment the call returns;
//    the pool bound is what throttles write-bursts against a slow server.
//  - bget additionally blocks until the request header has been injected.
//  - wait/test guarantee operation completion: for Sets, the key-value pair
//    is stored (or the failure is known); for Gets, the value has been copied
//    into the user's destination buffer.
//
// Threading: one application thread may call the public API per Client
// instance; the client runs two internal threads (TX engine and RX
// progress), and a call that blocks does its own posting and completion
// work when it can (below). Create one Client per application thread for
// concurrent use (matches libmemcached's non-thread-safe memcached_st).
//
// Who posts a request frame:
//  - iset/iget (and mget) always queue the job for the TX engine: the call
//    stays issue-only, a cold registration of the user's buffer is paid off
//    the caller, and doorbell batching can coalesce a burst of them.
//  - Every op whose caller blocks anyway -- bset/bget and the blocking API
//    (set, get, del, add, ..., stats) -- is posted on the caller's own thread
//    when the TX engine is idle (no job queued, none being sent). The caller
//    then skips two thread hand-offs per op: app -> TX to post, TX -> app to
//    report "sent". When the engine is busy the job queues behind the
//    backlog instead, so per-client FIFO order always holds.
//
// Who completes a request: whichever thread holds the client's progress
// token pops the endpoint's replies and completes every request they name.
//  - A blocking op takes the token before it registers its request, and
//    wait()/wait_for() take it when it is free. The caller then completes
//    its own reply (and any earlier iget/iset replies or stale duplicates
//    that arrive first) on its own thread, and the RX thread sleeps through
//    the whole op.
//  - Otherwise the RX thread takes the token as soon as a request is pending
//    and keeps it until none is, so iset/iget completions the application
//    only test()s still progress in the background.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/backend_db.hpp"
#include "client/request.hpp"
#include "client/ring.hpp"
#include "common/counters.hpp"
#include "common/metrics.hpp"
#include "common/mutex.hpp"
#include "common/queue.hpp"
#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "net/fabric.hpp"
#include "server/protocol.hpp"

namespace hykv::client {

struct ClientConfig {
  std::vector<net::EndpointId> servers;
  std::string name = "client";
  std::size_t bounce_slots = 16;
  std::size_t bounce_slot_bytes = std::size_t{1} << 20;
  /// Blocking Gets consult the backend database on a miss (cache-aside) and
  /// re-populate the cache -- the in-memory designs' miss path.
  bool use_backend_on_miss = false;

  // ---- Failure handling (all real/wall-clock time) ----
  /// Per-operation deadline. 0 disables deadlines entirely: blocking ops and
  /// wait() block until completion, retries never trigger, and the happy
  /// path is byte-for-byte the pre-failure-model behaviour.
  sim::Nanos op_deadline{0};
  /// Extra attempts for *idempotent* blocking ops (set/get/del) after a
  /// timeout. Non-idempotent ops (incr, append, cas, ...) never retry --
  /// the first attempt may have been applied.
  unsigned max_retries = 2;
  /// Server ejection/readmission thresholds for the ring dead-set.
  FailoverPolicy failover{};

  // ---- Overload control (DESIGN.md §8; all default-off, keeping the happy
  //      path byte-for-byte the pre-overload behaviour) ----
  /// Shared retry-token budget across every operation of this client
  /// (0 = unlimited). Each retry spends a token; each successful round trip
  /// refunds one (capped at the budget), so a healthy cluster retries freely
  /// while a saturated one converges instead of amplifying into a retry
  /// storm. When the bucket is dry a would-be retry is skipped and the last
  /// status stands.
  std::uint64_t retry_budget = 0;
  /// Fail-fast window for the non-blocking issue path (0 = off): when this
  /// many requests are already in flight to the target server, iset/iget/
  /// bset/bget return kBusy at issue instead of queueing more work -- an
  /// iset storm is bounded at the source.
  std::size_t max_pending_per_server = 0;
  /// Attach the op deadline to outgoing requests (protocol deadline header)
  /// so servers can drop expired-on-arrival work instead of executing it.
  /// Requires op_deadline > 0 to have any effect.
  bool propagate_deadline = false;

  // ---- Doorbell batching (DESIGN.md §12; default-off, keeping the wire
  //      byte-for-byte the pre-batching behaviour) ----
  /// TX coalescing bound: the engine opportunistically drains the TX queue
  /// and packs up to this many *consecutive same-server* requests into one
  /// batch frame, paying the per-message fabric costs (doorbell,
  /// propagation, response post) once per frame instead of once per op.
  /// 1 (default) disables coalescing entirely -- every op is its own frame,
  /// byte-identical to the unbatched protocol. A run of length 1 is always
  /// sent as a plain frame, never wrapped.
  std::size_t batch_max_ops = 1;

  // ---- Observability (DESIGN.md §10) ----
  /// Per-op-class issue->complete latency histograms (op_latency()): the
  /// client-side view of the same request the server histograms time, so the
  /// paper's issue/completion-overlap benefit is measurable from both ends.
  /// Also the client spans (span_latency()): time blocked in wait()/
  /// wait_for() and backend fetches after a miss -- the paper's ClientWait
  /// and MissPenalty stages. Recording is a few relaxed atomic adds.
  bool record_latency = true;
};

/// Client-side op counters. `nonblocking_issued` counts the non-blocking API
/// calls the application made itself: iset, iget, bset and bget with a
/// non-empty key. The blocking ops and mget that are built on the same
/// machinery are not counted.
#define HYKV_CLIENT_COUNTER_FIELDS(X)                                       \
  X(std::uint64_t, sets)                                                    \
  X(std::uint64_t, gets)                                                    \
  X(std::uint64_t, deletes)                                                 \
  X(std::uint64_t, hits)                                                    \
  X(std::uint64_t, misses)                                                  \
  X(std::uint64_t, backend_fetches)                                         \
  X(std::uint64_t, nonblocking_issued)                                      \
  X(std::uint64_t, timeouts) /* requests cancelled on deadline */           \
  X(std::uint64_t, retries) /* re-issued idempotent attempts */             \
  X(std::uint64_t, server_down) /* issues refused: target ejected */        \
  X(std::uint64_t, busy) /* kBusy responses (server shed/expired) */        \
  X(std::uint64_t, busy_fail_fast) /* issues refused: local window full */  \
  X(std::uint64_t, retry_budget_exhausted) /* retries skipped: no tokens */ \
  X(std::uint64_t, batches_sent) /* batch frames posted by the engine */    \
  X(std::uint64_t, batched_ops) /* ops that rode inside those frames */     \
  X(std::uint64_t, caller_completions) /* replies completed by the waiter */

struct ClientCounters {
  HYKV_COUNTER_FIELDS(ClientCounters, HYKV_CLIENT_COUNTER_FIELDS)

  /// Average ops per batch frame (the batch-fill ratio); 0 when no frame
  /// has been sent. Single-op sends bypass the batch path entirely, so this
  /// is always >= 2 once nonzero.
  [[nodiscard]] double batch_fill() const noexcept {
    return batches_sent == 0
               ? 0.0
               : static_cast<double>(batched_ops) /
                     static_cast<double>(batches_sent);
  }
};

/// Typed `stats` subcommand selector for stats_text; each kind names one
/// wire-level subcommand.
enum class StatsKind {
  kCounters,  ///< Legacy counter text ("" on the wire; frozen format).
  kLatency,   ///< Histogram percentiles ("latency").
  kTrace,     ///< Sampled op timelines as JSON ("trace").
};

class Client {
 public:
  /// `backend` may be nullptr when use_backend_on_miss is false; it must
  /// outlive the client otherwise.
  Client(net::Fabric& fabric, ClientConfig config, BackendDb* backend = nullptr);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- Blocking API (memcached_set / memcached_get / memcached_delete) ----

  StatusCode set(std::string_view key, std::span<const char> value,
                 std::uint32_t flags = 0, std::int64_t expiration = 0);

  /// On success `out` holds the value. On a miss with a backend configured,
  /// fetches from the backend (miss_penalty span), re-populates the cache,
  /// and returns kOk; otherwise returns kNotFound.
  StatusCode get(std::string_view key, std::vector<char>& out,
                 std::uint32_t* flags = nullptr);

  StatusCode del(std::string_view key);

  /// memcached add/replace/append/prepend (blocking). kNotStored when the
  /// existence precondition fails.
  StatusCode add(std::string_view key, std::span<const char> value,
                 std::uint32_t flags = 0, std::int64_t expiration = 0);
  StatusCode replace(std::string_view key, std::span<const char> value,
                     std::uint32_t flags = 0, std::int64_t expiration = 0);
  StatusCode append(std::string_view key, std::span<const char> suffix);
  StatusCode prepend(std::string_view key, std::span<const char> prefix);

  /// memcached incr/decr (blocking): returns the new counter value.
  Result<std::uint64_t> incr(std::string_view key, std::uint64_t delta = 1);
  Result<std::uint64_t> decr(std::string_view key, std::uint64_t delta = 1);

  /// memcached touch (blocking): refreshes expiration in place.
  StatusCode touch(std::string_view key, std::int64_t expiration);

  /// memcached flush_all across every server in the ring.
  StatusCode flush_all();

  /// memcached "stats" from one server, as "name value" lines. StatsKind
  /// selects the subcommand.
  Result<std::string> stats_text(std::size_t server_index, StatsKind kind);

  /// memcached "gets": fetch value + CAS version token.
  StatusCode gets(std::string_view key, std::vector<char>& out,
                  std::uint32_t* flags, std::uint64_t* cas);

  /// memcached "cas": conditional store; kNotStored when the version moved
  /// (memcached EXISTS), kNotFound when the key vanished.
  StatusCode cas(std::string_view key, std::span<const char> value,
                 std::uint64_t cas_token, std::uint32_t flags = 0,
                 std::int64_t expiration = 0);

  /// memcached_mget: fetches many keys with one pipelined burst of
  /// non-blocking Gets, issued grouped by target server so the TX engine's
  /// coalescing turns each server's keys into one (or few) batch frames.
  /// Returns one entry per input key; missing keys yield an empty optional.
  /// Implemented on mget_status -- any per-key failure (timeout, busy,
  /// server down) also collapses to an empty optional here.
  std::vector<std::optional<std::vector<char>>> mget(
      std::span<const std::string> keys);

  /// Like mget, but status-preserving: each entry is the key's value (kOk),
  /// or the per-key terminal status -- kNotFound for a true miss, kTimedOut/
  /// kBusy/kServerDown/... for delivery failures -- so callers can tell a
  /// miss from a key they should retry.
  std::vector<Result<std::vector<char>>> mget_status(
      std::span<const std::string> keys);

  // ---- Non-blocking API (Listing 1) ----

  /// Issue-only Set: returns after posting to the engine. `value` (and `key`)
  /// must stay untouched until `req` completes.
  StatusCode iset(std::string_view key, std::span<const char> value,
                  std::uint32_t flags, std::int64_t expiration, Request& req);

  /// Buffer-safe Set: the value is copied into a registered bounce buffer;
  /// key/value are reusable as soon as this returns. Blocks when all bounce
  /// slots are in flight (bounded-pool backpressure).
  StatusCode bset(std::string_view key, std::span<const char> value,
                  std::uint32_t flags, std::int64_t expiration, Request& req);

  /// Issue-only Get: on completion the value is in `dest` (or status is
  /// kBufferTooSmall with req.value_length() telling the needed size).
  StatusCode iget(std::string_view key, std::span<char> dest, Request& req);

  /// Buffer-safe Get: additionally waits for header injection so the key
  /// buffer is reusable on return.
  StatusCode bget(std::string_view key, std::span<char> dest, Request& req);

  /// Blocks until `req` completes (memcached_wait). Time spent is recorded
  /// as the client_wait span. When the RX thread is not already popping
  /// replies, the caller pops them itself until `req` is done.
  void wait(Request& req);

  /// Like wait() but gives up after `timeout` (real time): the request is
  /// cancelled (kTimedOut) unless its completion raced in, in which case the
  /// real status is returned. Safe against late responses -- a cancelled
  /// request is unregistered before this returns.
  StatusCode wait_for(Request& req, sim::Nanos timeout);

  /// Cancels an in-flight request: completes it with kTimedOut unless it
  /// already finished (or the RX thread is completing it right now, in which
  /// case this waits for that verdict). Returns the final status.
  StatusCode cancel(Request& req);

  /// Non-blocking completion check (memcached_test).
  [[nodiscard]] bool test(const Request& req) const { return req.done(); }

  // ---- Introspection ----

  [[nodiscard]] ClientCounters counters() const;
  /// Merged issue->complete latency histogram for one op class. Covers every
  /// completion path (response, timeout/cancel, shutdown) of blocking and
  /// non-blocking ops alike; empty when record_latency is off.
  [[nodiscard]] LatencyHistogram op_latency(metrics::Op op) const;
  /// Merged histogram of one client span (kClientWait: one sample per
  /// wait()/wait_for(); kMissPenalty: one per backend fetch); other spans
  /// stay empty here. Empty when record_latency is off.
  [[nodiscard]] LatencyHistogram span_latency(metrics::Span span) const;
  void reset_metrics();
  [[nodiscard]] const ServerRing& ring() const noexcept { return ring_; }
  [[nodiscard]] net::EndpointId endpoint_id() const { return endpoint_->id(); }

  /// Bounce slots currently idle -- equals the configured pool size whenever
  /// no request is in flight (chaos tests assert no slot is ever leaked).
  [[nodiscard]] std::size_t free_bounce_slots() const {
    return free_slots_.size();
  }
  /// Requests currently registered in the pending map (0 once every issued
  /// request reached a terminal status).
  [[nodiscard]] std::size_t pending_requests() const EXCLUDES(pending_mu_) {
    const MutexLock lock(pending_mu_);
    return pending_.size();
  }

 private:
  /// One request on its way to the wire. Move-only: `op` views `owned`.
  struct TxJob {
    TxJob() = default;
    TxJob(TxJob&&) = default;
    TxJob& operator=(TxJob&&) = default;
    TxJob(const TxJob&) = delete;
    TxJob& operator=(const TxJob&) = delete;

    std::uint16_t opcode = 0;
    std::uint64_t wr_id = 0;
    net::EndpointId server = net::kInvalidEndpoint;
    /// The request. Its key views `owned`; its value views `owned`, a
    /// bounce slot, or (iset, zero copy) the caller's buffer.
    server::OpRequest op{};
    std::vector<char> owned;  ///< The key bytes, then any copied value.
    std::span<char> dest{};   ///< Reply destination (iget/bget, scratch_).
    std::int64_t deadline_ns = 0;  ///< Propagated deadline (0 = none).
  };

  struct Pending {
    Request* req = nullptr;
    int slot = -1;      ///< Bounce slot to release on completion (-1: none).
    bool is_get = false;
    net::EndpointId server = net::kInvalidEndpoint;  ///< Ring health target.
  };

  /// Who holds the progress token (see the file comment).
  enum class Progress : std::uint8_t { kFree, kRx, kCaller };

  /// The application thread's claim on the progress token: taken at
  /// construction when free, handed back at destruction.
  class CallerProgress {
   public:
    explicit CallerProgress(Client& client)
        : client_(client), held_(client.take_progress()) {}
    ~CallerProgress() {
      if (held_) client_.release_progress();
    }
    CallerProgress(const CallerProgress&) = delete;
    CallerProgress& operator=(const CallerProgress&) = delete;
    [[nodiscard]] bool held() const noexcept { return held_; }

   private:
    Client& client_;
    bool held_;
  };

  void tx_main();
  /// Parks until a request is pending and the token is free, then pops
  /// replies until the pending map is empty; at shutdown drains the
  /// endpoint.
  void rx_main();
  /// Takes the token for the application thread; false when it is held.
  bool take_progress() EXCLUDES(progress_mu_);
  /// Frees the token, waking the RX thread if requests are still pending.
  void release_progress() EXCLUDES(progress_mu_, pending_mu_);
  /// True when the application thread holds the token.
  bool caller_holds_progress() EXCLUDES(progress_mu_);
  /// Wakes the RX thread after a request was registered, if the token is
  /// free (nobody is popping replies).
  void wake_progress() EXCLUDES(progress_mu_);
  /// Completes every op in one reply frame; returns how many it completed
  /// (stale and unreadable replies complete none).
  std::size_t dispatch(const net::Message& reply);
  /// Pops and dispatches one reply on the application thread, which holds
  /// the token. False when the endpoint timed out (`deadline` passed) or
  /// was closed.
  bool progress_once(
      std::optional<std::chrono::steady_clock::time_point> deadline);
  /// Waits until `req` is done, popping replies while `driving` (the caller
  /// holds the token), or until `deadline`, then cancels it. Records the
  /// client_wait span.
  StatusCode await(Request& req, bool driving,
                   std::optional<std::chrono::steady_clock::time_point>
                       deadline);
  /// A job for `op`, with the key and the value copied into it, so a queued
  /// job never reads a caller's buffer that a timeout has handed back.
  [[nodiscard]] static TxJob make_job(std::uint16_t opcode,
                                      net::EndpointId server,
                                      const server::OpRequest& op,
                                      std::span<char> dest = {});
  /// How issue() hands a registered job to the wire.
  enum class Post {
    kQueued,          ///< Through the TX engine (iset/iget).
    kInlineWhenIdle,  ///< On the caller's thread while the engine is idle.
  };

  /// Posts a run of consecutive same-server jobs as one frame: registration,
  /// encode, send. protocol.hpp picks the frame shape: a run of one is a
  /// plain frame, byte for byte the pre-batching wire. Called by the TX
  /// engine and, with a run of one, by the caller for inline posts.
  void post(std::span<const TxJob> run);
  /// Completes the pending op `wr_id` from its raw RESP-encoded bytes
  /// (undecodable bytes complete as kServerError): pending-map erase, GET
  /// value placement, hit/miss + overload counters, bounce-slot release,
  /// ring health, completion signal. False for a stale reply.
  bool complete_one(std::uint64_t wr_id, std::span<const char> response_bytes);
  /// Publishes req's result and wakes waiters. Last access to `req`.
  void signal_completion(Request& req, StatusCode status, std::uint32_t flags,
                         std::size_t value_len);
  /// Marks the request with this wr_id injected (local send completion) and
  /// wakes waiters. Touches the Request only while it is still registered in
  /// the pending map -- once a request completes (and may be destroyed by
  /// its owner) it is no longer reachable from here. Queued jobs only: an
  /// inline post marks its own request, which its caller owns.
  void signal_sent(std::uint64_t wr_id);
  /// Parks until the predicate holds (predicate may read request atomics,
  /// never state guarded by completion_mu_ -- the lock only serialises the
  /// sleep/notify handshake).
  template <typename Pred>
  void park_until(Pred&& pred) EXCLUDES(completion_mu_) {
    if (pred()) return;  // already true (an inline post is already sent)
    const MutexLock lock(completion_mu_);
    completion_cv_.wait(completion_mu_, std::forward<Pred>(pred));
  }
  /// Registers `job` as pending on `req` and posts it. `is_get`: the reply
  /// value is placed in job.dest and counts as a hit or miss.
  StatusCode issue(TxJob job, Request& req, int slot, bool is_get,
                   Post how = Post::kInlineWhenIdle);
  /// Shared body of bset and set: stages the value in a bounce slot (a
  /// private copy when oversized), issues the Set and waits until it is
  /// sent, so the slot is never recycled while a queued job still reads it.
  /// Key must be non-empty.
  StatusCode start_set(std::string_view key, std::span<const char> value,
                       std::uint32_t flags, std::int64_t expiration,
                       Request& req);
  /// Shared body of iget, bget and mget. Key must be non-empty.
  StatusCode start_get(std::string_view key, std::span<char> dest,
                       Request& req, Post how = Post::kInlineWhenIdle);
  /// One attempt of a blocking op, for run_attempts: issues a job for `op`
  /// to `server`, or to the key's ring server when none is given -- chosen
  /// again on every attempt, so a retry can fail over. With `into_scratch`
  /// the reply value lands in scratch_.
  [[nodiscard]] std::function<StatusCode(Request&)> attempt(
      std::uint16_t opcode, const server::OpRequest& op,
      bool into_scratch = false,
      net::EndpointId server = net::kInvalidEndpoint);
  /// Shared body of add/replace/append/prepend/cas (non-idempotent stores).
  StatusCode store_op(std::uint16_t opcode, const server::OpRequest& op);
  /// Shared body of incr and decr.
  Result<std::uint64_t> counter_op(std::uint16_t opcode, std::string_view key,
                                   std::uint64_t delta);
  /// Runs one blocking operation under the deadline/retry policy:
  /// `issue_attempt` posts a fresh request (re-selecting the server, so a
  /// retry after ejection fails over) and is re-run on timeout while budget
  /// remains, but only when `idempotent`. Returns the final status --
  /// kServerDown when attempts exhausted against an ejected server.
  StatusCode run_attempts(
      Request& req, const std::function<StatusCode(Request&)>& issue_attempt,
      bool idempotent);
  /// run_attempts for an idempotent blocking read into scratch_ (get, gets,
  /// stats). A reply larger than scratch_ -- a value set stored through its
  /// oversized fallback -- grows scratch_ to fit, registers it and reissues.
  StatusCode run_into_scratch(
      Request& req, const std::function<StatusCode(Request&)>& issue_attempt);
  void complete_all_pending(StatusCode status);
  /// Spends one retry token; false (and counts) when the bucket is dry.
  /// Always true with retry_budget == 0 (unlimited).
  bool try_spend_retry_token();
  /// Counts a response toward the overload counters and refunds a retry
  /// token on a successful (non-busy) round trip.
  void note_response(StatusCode status);
  /// Drops the per-server in-flight count for an unregistered request.
  /// Call after erasing its pending-map entry (no-op when the window is off).
  void release_pending_window(net::EndpointId server);
  std::uint64_t next_wr_id() REQUIRES(pending_mu_) { return wr_id_seq_++; }

  net::Fabric& fabric_;
  ClientConfig config_;
  BackendDb* backend_;
  std::shared_ptr<net::Endpoint> endpoint_;
  ServerRing ring_;

  // Bounce buffer pool (pre-registered with the HCA at startup).
  std::vector<std::unique_ptr<char[]>> slots_;
  BlockingQueue<int> free_slots_;

  BlockingQueue<TxJob> tx_queue_;
  /// Jobs pushed to tx_queue_ and not yet posted, counting any the engine
  /// is sending right now (or holds as a batching carry). The application
  /// thread increments it before each push; tx_main decrements it with
  /// release order once the job is on the wire. With one application thread,
  /// an acquire load of 0 proves no queued job can be overtaken by an inline
  /// post, and that the engine is done touching the endpoint.
  std::atomic<std::size_t> tx_backlog_ ATOMIC_PUBLISHED(
      app increments before push; tx_main release-decrements after post){0};
  std::thread tx_thread_;
  std::thread rx_thread_;

  // Completion signalling: requests carry only atomic flags; sleeping
  // waiters park on this client-wide cv so the completing thread never
  // touches a (possibly already destroyed) per-request cv. See request.hpp.
  Mutex completion_mu_;
  CondVar completion_cv_;

  // The progress token. Taken before pending_mu_ when both are held.
  Mutex progress_mu_;
  CondVar progress_cv_;  ///< The RX thread parks here.
  Progress progress_ GUARDED_BY(progress_mu_) = Progress::kFree;
  bool rx_stop_ GUARDED_BY(progress_mu_) = false;

  mutable Mutex pending_mu_;
  std::unordered_map<std::uint64_t, Pending> pending_ GUARDED_BY(pending_mu_);
  /// In-flight requests per server; maintained only when
  /// max_pending_per_server > 0.
  std::unordered_map<net::EndpointId, std::size_t> pending_per_server_
      GUARDED_BY(pending_mu_);
  std::uint64_t wr_id_seq_ GUARDED_BY(pending_mu_) = 1;
  bool closed_ GUARDED_BY(pending_mu_) = false;

  /// Written by the application, TX and RX threads alike; no lock.
  metrics::CounterSlot<ClientCounters> counters_;
  /// Issue->complete histograms and client spans (null when record_latency
  /// is off). Written by whichever thread completes a request (the token
  /// holder, cancel, shutdown) or waits on one -- recorder slots are atomic, so no lock is
  /// involved.
  std::unique_ptr<metrics::LatencyRecorder> latency_;
  /// Retry-token bucket; starts full at config_.retry_budget and is
  /// refunded by successful round trips, never above the budget.
  std::atomic<std::uint64_t> retry_tokens_ ATOMIC_PUBLISHED(
      CAS spend and capped refund, relaxed){0};

  std::vector<char> scratch_;  ///< Blocking-read destination; grows on demand.
};

}  // namespace hykv::client
