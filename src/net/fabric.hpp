// Simulated interconnect with verbs-like two-sided semantics.
//
// A Fabric hosts Endpoints (one per client / server process in the paper's
// deployment). Endpoints exchange Messages; the fabric stamps each message
// with a delivery time derived from the FabricProfile and from NIC occupancy
// (per-endpoint TX/RX serialisation), so that concurrent traffic exhibits
// realistic queueing instead of infinite parallel bandwidth.
//
// Verbs analogy:
//   Endpoint            ~ an RDMA-capable NIC + its QPs to all peers
//   Endpoint::send      ~ ibv_post_send(IBV_WR_SEND) + local completion
//   Endpoint::recv      ~ ibv_poll_cq on the recv CQ (blocking helper)
//   register_memory     ~ ibv_reg_mr, with a registration cache on top
//
// Every design moves requests and replies with send/recv. The IPoIB profile
// pays kernel costs per segment and syscall-grade posts, which is exactly
// how the paper's IPoIB-Mem baseline differs.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.hpp"
#include "common/mutex.hpp"
#include "common/profiles.hpp"
#include "common/thread_annotations.hpp"
#include "common/queue.hpp"
#include "common/status.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"

namespace hykv::net {

class Fabric;

/// Per-endpoint message counters. The injected-fault counters stay zero on
/// a perfect fabric.
#define HYKV_ENDPOINT_STATS_FIELDS(X)                                      \
  X(std::uint64_t, sends)                                                  \
  X(std::uint64_t, recvs)                                                  \
  X(std::uint64_t, sent_bytes)                                             \
  X(std::uint64_t, registrations) /* cold ibv_reg_mr calls */              \
  X(std::uint64_t, registration_hits) /* registration-cache hits */        \
  X(std::uint64_t, faults_dropped) /* messages lost by the injector */     \
  X(std::uint64_t, faults_duplicated) /* messages delivered twice */       \
  X(std::uint64_t, faults_delayed) /* messages given extra delay */        \
  X(std::uint64_t, faults_link_down) /* sends refused: link down */        \
  X(std::uint64_t, registration_evictions) /* LRU regions deregistered */

struct EndpointStats {
  HYKV_COUNTER_FIELDS(EndpointStats, HYKV_ENDPOINT_STATS_FIELDS)
};

/// Exact composite registration-cache key. Hashing (addr, len) into a single
/// uint64 could collide and alias two distinct regions; exact keying cannot.
struct RegCacheKey {
  const char* addr = nullptr;
  std::size_t len = 0;
  bool operator==(const RegCacheKey&) const noexcept = default;
};

struct RegCacheKeyHash {
  std::size_t operator()(const RegCacheKey& key) const noexcept;
};

/// Regions an endpoint's registration cache keeps registered. Far above the
/// buffers a client reuses (its bounce slots and a window of iget
/// destinations), so those stay hot; a stream of one-off buffers (zero-copy
/// iset values) cycles through the rest instead of growing memory per op.
inline constexpr std::size_t kRegCacheCapacity = std::size_t{1} << 16;

class Endpoint {
 public:
  Endpoint(Fabric& fabric, EndpointId id, std::string name);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] EndpointId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Two-sided send. Pays the doorbell inline; returns a ticket whose
  /// completes_at marks local send completion (buffer reusable for zero-copy
  /// senders). The payload is snapshotted at call time -- deferred-copy
  /// semantics (iset hazard window) are realised by *when* the progress
  /// engine invokes send, not by the fabric.
  SendTicket send(EndpointId dst, std::uint16_t opcode, std::uint64_t wr_id,
                  std::span<const char> payload);

  /// Blocking receive; honours each message's delivery timestamp. Returns
  /// kShutdown status when the endpoint is closed and drained.
  Result<Message> recv();
  /// recv with a real-time timeout (for shutdown-polling loops).
  Result<Message> recv_for(sim::Nanos real_timeout);

  /// Registers `len` bytes at `addr` with the (simulated) HCA. First
  /// registration of an (addr, len) pays the full pinning cost; repeats hit
  /// the registration cache (the mechanism that motivates the bset/bget
  /// reusable-buffer design) until kRegCacheCapacity newer regions have
  /// pushed it out.
  void register_memory(const char* addr, std::size_t len) EXCLUDES(mu_);

  void close();
  [[nodiscard]] bool closed() const { return rx_.closed(); }
  [[nodiscard]] EndpointStats stats() const { return stats_.snapshot(); }

 private:
  friend class Fabric;

  Fabric& fabric_;
  EndpointId id_;
  std::string name_;
  BlockingQueue<Message> rx_;

  /// Counted without a lock: send, recv, recv_for and register_memory run
  /// on different threads and only add.
  metrics::CounterSlot<EndpointStats> stats_;

  Mutex mu_;
  // Registration cache: the kRegCacheCapacity most recently used (addr, len)
  // regions, most recent first in reg_lru_. Emulates the lazy deregistration
  // caches RDMA middleware uses to amortise ibv_reg_mr.
  std::list<RegCacheKey> reg_lru_ GUARDED_BY(mu_);
  std::unordered_map<RegCacheKey, std::list<RegCacheKey>::iterator,
                     RegCacheKeyHash>
      reg_cache_ GUARDED_BY(mu_);
  // NIC occupancy horizons for the link model: written only by the owning
  // fabric's reserve_path under ITS lock, never under this->mu_.
  sim::TimePoint tx_free_ GUARDED_BY(fabric_.mu_){};
  sim::TimePoint rx_free_ GUARDED_BY(fabric_.mu_){};
};

class Fabric {
 public:
  /// `faults` defaults to a perfect fabric; with FaultProfile::none() the
  /// injector is never constructed and the data path pays one null check.
  explicit Fabric(FabricProfile profile,
                  FaultProfile faults = FaultProfile::none());

  /// Creates an endpoint attached to this fabric. Endpoints live as long as
  /// the fabric; shared_ptr keeps teardown order forgiving.
  std::shared_ptr<Endpoint> create_endpoint(std::string name);

  [[nodiscard]] const FabricProfile& profile() const noexcept { return profile_; }

  /// Fault injector, or nullptr on a perfect fabric.
  [[nodiscard]] FaultInjector* faults() noexcept { return faults_.get(); }

  /// Convenience: flip an endpoint's link state (no-op without an injector
  /// -- a perfect fabric has no link failures to model).
  void set_link_down(EndpointId endpoint, bool down) {
    if (faults_ != nullptr) faults_->set_link_down(endpoint, down);
  }

  /// Total payload bytes moved (diagnostics).
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Endpoint lookup by id (nullptr when unknown). The pointer stays valid
  /// for the fabric's lifetime: endpoints are never removed.
  [[nodiscard]] Endpoint* endpoint(EndpointId id) EXCLUDES(mu_);

 private:
  friend class Endpoint;

  /// Core link model: computes occupancy-aware injection finish time for a
  /// `size`-byte transfer from src to dst and advances both NIC horizons.
  /// Returns {injection_finish, deliver_at}.
  std::pair<sim::TimePoint, sim::TimePoint> reserve_path(Endpoint& src,
                                                         Endpoint& dst,
                                                         std::size_t size)
      EXCLUDES(mu_);

  FabricProfile profile_;
  std::unique_ptr<FaultInjector> faults_;
  Mutex mu_;
  std::unordered_map<EndpointId, std::shared_ptr<Endpoint>> endpoints_
      GUARDED_BY(mu_);
  EndpointId next_id_ GUARDED_BY(mu_) = 1;
  std::atomic<std::uint64_t> total_bytes_ ATOMIC_PUBLISHED(relaxed counter){0};
};

}  // namespace hykv::net
