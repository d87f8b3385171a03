// The non-blocking request handle -- the C++ face of the paper's
// memcached_req structure (Listing 1): a completion flag the user can wait
// or test on, the operation's final status, and (for Gets) where the fetched
// value was placed.
//
// Lifetime contract (like an MPI_Request): the handle must stay alive until
// wait()/test() reports completion or the owning Client is destroyed. A
// handle is single-use; Client::*set/*get calls reset() it.
//
// Completion signalling deliberately lives in the Client (a client-wide
// condition variable), not here: the completing thread's *last* access to a
// Request is the release-store of the done flag, so the caller may destroy
// the handle the moment test()/wait() observes completion -- no
// destroyed-while-notifying races.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "common/sim_time.hpp"
#include "common/status.hpp"

namespace hykv::client {

class Client;

class Request {
 public:
  Request() = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True once the operation finished (successfully or not). Non-blocking --
  /// the paper's memcached_test.
  [[nodiscard]] bool done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

  /// Final status; kInProgress until done(). kBusy is terminal: the server
  /// (or the client's own fail-fast window) refused the request before
  /// executing it, so it had no side effects and may be re-issued -- even a
  /// non-idempotent one.
  [[nodiscard]] StatusCode status() const noexcept {
    return done() ? status_ : StatusCode::kInProgress;
  }

  /// For Get requests: length of the fetched value (valid once done()).
  /// When the user's destination buffer was too small the status is
  /// kBufferTooSmall and this still reports the full length needed.
  [[nodiscard]] std::size_t value_length() const noexcept { return value_len_; }
  [[nodiscard]] std::uint32_t flags() const noexcept { return flags_; }

  /// True once the request has been injected (local send completion), by
  /// the TX engine or by the caller's own inline post -- the bget/bset
  /// "data sent out" point.
  [[nodiscard]] bool sent() const noexcept {
    return sent_.load(std::memory_order_acquire) || done();
  }

 private:
  friend class Client;

  void reset(std::span<char> dest) noexcept {
    done_.store(false, std::memory_order_relaxed);
    sent_.store(false, std::memory_order_relaxed);
    status_ = StatusCode::kInProgress;
    value_len_ = 0;
    flags_ = 0;
    wr_id_ = 0;
    server_ = 0;
    opcode_ = 0;
    issued_at_ = sim::TimePoint{};
    dest_ = dest;
  }

  /// Publishes the result. MUST be the caller's last access to the Request:
  /// once done_ is visible, the owner may destroy the handle.
  void publish_completion(StatusCode status, std::uint32_t flags,
                          std::size_t value_len) noexcept {
    status_ = status;
    flags_ = flags;
    value_len_ = value_len;
    done_.store(true, std::memory_order_release);
  }

  std::atomic<bool> done_{false};
  std::atomic<bool> sent_{false};
  std::uint64_t wr_id_ = 0;  ///< Set by Client::issue; used for cancel.
  std::uint64_t server_ = 0; ///< Target server (EndpointId); for failover.
  std::uint16_t opcode_ = 0; ///< For the issue->complete latency op class.
  /// Stamped at issue when the client records latency; both fields are set
  /// before the request is registered in the pending map, so the completing
  /// thread reads them race-free.
  sim::TimePoint issued_at_{};
  StatusCode status_ = StatusCode::kInProgress;
  std::uint32_t flags_ = 0;
  std::size_t value_len_ = 0;
  std::span<char> dest_{};  ///< Get destination; empty for Sets.
};

}  // namespace hykv::client
