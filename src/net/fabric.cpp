#include "net/fabric.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "common/logging.hpp"

namespace hykv::net {
namespace {

/// Injection (occupancy) time: the transfer cost minus propagation. This is
/// the duration a NIC/link is busy with this message's bytes.
sim::Nanos occupancy_time(const FabricProfile& profile, std::size_t size) {
  return profile.transfer_time(size) - profile.base_latency;
}

}  // namespace

std::size_t RegCacheKeyHash::operator()(const RegCacheKey& key) const noexcept {
  return mix64(mix64(reinterpret_cast<std::uintptr_t>(key.addr)) ^
               mix64(key.len));
}

Endpoint::Endpoint(Fabric& fabric, EndpointId id, std::string name)
    : fabric_(fabric), id_(id), name_(std::move(name)) {}

Fabric::Fabric(FabricProfile profile, FaultProfile faults)
    : profile_(std::move(profile)),
      faults_(faults.enabled() ? std::make_unique<FaultInjector>(faults)
                               : nullptr) {}

std::shared_ptr<Endpoint> Fabric::create_endpoint(std::string name) {
  const MutexLock lock(mu_);
  const EndpointId id = next_id_++;
  auto ep = std::make_shared<Endpoint>(*this, id, std::move(name));
  endpoints_.emplace(id, ep);
  return ep;
}

Endpoint* Fabric::endpoint(EndpointId id) {
  const MutexLock lock(mu_);
  auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

// NO_THREAD_SAFETY_ANALYSIS: src/dst horizons are GUARDED_BY(fabric_.mu_)
// and this method holds exactly that lock, but the analysis cannot prove the
// alias src.fabric_ == *this (every endpoint belongs to the fabric that
// created it, enforced by construction in create_endpoint).
std::pair<sim::TimePoint, sim::TimePoint> Fabric::reserve_path(
    Endpoint& src, Endpoint& dst, std::size_t size) NO_THREAD_SAFETY_ANALYSIS {
  const sim::Nanos occupancy = sim::scaled(occupancy_time(profile_, size));
  const sim::Nanos propagation = sim::scaled(profile_.base_latency);
  const MutexLock lock(mu_);
  const sim::TimePoint now = sim::now();
  sim::TimePoint start = std::max(now, src.tx_free_);
  start = std::max(start, dst.rx_free_);
  const sim::TimePoint finish = start + occupancy;
  src.tx_free_ = finish;
  dst.rx_free_ = finish;
  total_bytes_.fetch_add(size, std::memory_order_relaxed);
  return {finish, finish + propagation};
}

SendTicket Endpoint::send(EndpointId dst, std::uint16_t opcode,
                          std::uint64_t wr_id, std::span<const char> payload) {
  sim::advance(fabric_.profile().doorbell);
  Endpoint* target = fabric_.endpoint(dst);
  if (target == nullptr || target->rx_.closed()) {
    // Completed "immediately": nothing was injected. Callers detect the
    // failure at the protocol level (no response -> timeout/shutdown).
    return SendTicket{sim::now()};
  }

  FaultInjector* faults = fabric_.faults();
  MessageFault fault;
  if (faults != nullptr) {
    if (faults->link_down(id_, dst)) {
      // Partitioned: the work request "completes" locally but nothing
      // reaches the wire (the QP would eventually flush with an error; here
      // the protocol layer sees it as silence -> timeout).
      stats_.add(&EndpointStats::faults_link_down);
      return SendTicket{sim::now()};
    }
    fault = faults->on_message(id_, dst);
  }

  const auto [finish, deliver_at] = fabric_.reserve_path(*this, *target, payload.size());

  stats_.add(&EndpointStats::sends);
  stats_.add(&EndpointStats::sent_bytes, payload.size());
  if (fault.drop) stats_.add(&EndpointStats::faults_dropped);
  if (fault.duplicate) stats_.add(&EndpointStats::faults_duplicated);
  if (fault.extra_delay.count() > 0) {
    stats_.add(&EndpointStats::faults_delayed);
  }

  if (fault.drop) {
    // The bytes occupied the link (reserve_path above) but never arrive.
    // Local send completion still fires -- a lossy fabric looks healthy to
    // the sender, exactly why completion needs timeouts.
    return SendTicket{finish};
  }

  Message msg;
  msg.src = id_;
  msg.dst = dst;
  msg.opcode = opcode;
  msg.wr_id = wr_id;
  msg.payload.assign(payload.begin(), payload.end());
  msg.deliver_at = deliver_at + sim::scaled(fault.extra_delay);
  msg.sent_at = sim::now();  // post time: receivers derive the transfer span
  if (fault.duplicate) {
    // The ghost copy trails the original by one propagation delay -- the
    // receiver must tolerate duplicate wr_ids (stale-response path).
    Message ghost = msg;
    ghost.deliver_at += sim::scaled(fabric_.profile().base_latency);
    target->rx_.push(std::move(msg));
    target->rx_.push(std::move(ghost));
  } else {
    target->rx_.push(std::move(msg));
  }
  return SendTicket{finish};
}

Result<Message> Endpoint::recv() {
  auto msg = rx_.pop();
  if (!msg.has_value()) return StatusCode::kShutdown;
  sim::wait_until(msg->deliver_at);
  stats_.add(&EndpointStats::recvs);
  return std::move(*msg);
}

Result<Message> Endpoint::recv_for(sim::Nanos real_timeout) {
  auto msg = rx_.pop_for(real_timeout);
  if (!msg.has_value()) {
    return rx_.closed() ? StatusCode::kShutdown : StatusCode::kTimedOut;
  }
  sim::wait_until(msg->deliver_at);
  stats_.add(&EndpointStats::recvs);
  return std::move(*msg);
}

void Endpoint::register_memory(const char* addr, std::size_t len) {
  const RegCacheKey key{addr, len};
  bool cached = false;
  {
    const MutexLock lock(mu_);
    if (const auto it = reg_cache_.find(key); it != reg_cache_.end()) {
      reg_lru_.splice(reg_lru_.begin(), reg_lru_, it->second);
      cached = true;
    }
  }
  if (cached) {
    stats_.add(&EndpointStats::registration_hits);
    sim::advance(fabric_.profile().registration_cached);
    return;
  }
  // Cold registration: pin pages, build HCA translation entries.
  sim::advance(fabric_.profile().registration_time(len));
  const MutexLock lock(mu_);
  stats_.add(&EndpointStats::registrations);
  const auto [it, inserted] = reg_cache_.try_emplace(key);
  if (!inserted) return;  // another thread registered it meanwhile
  reg_lru_.push_front(key);
  it->second = reg_lru_.begin();
  if (reg_cache_.size() > kRegCacheCapacity) {
    // Deregister the least recently used region.
    reg_cache_.erase(reg_lru_.back());
    reg_lru_.pop_back();
    stats_.add(&EndpointStats::registration_evictions);
  }
}

void Endpoint::close() { rx_.close(); }

}  // namespace hykv::net
