#include "core/testbed.hpp"

#include <algorithm>

#include "common/hash.hpp"

namespace hykv::core {

TestBed::TestBed(TestBedConfig config)
    : config_(std::move(config)),
      fabric_(std::make_unique<net::Fabric>(fabric_profile(config_.design),
                                            config_.fabric_faults)),
      backend_(config_.backend, config_.backend_resolver) {
  const unsigned n = std::max(1u, config_.num_servers);
  const std::size_t per_server_memory = config_.total_server_memory / n;
  const std::size_t per_server_ssd =
      config_.total_ssd_limit == 0 ? 0 : config_.total_ssd_limit / n;

  for (unsigned i = 0; i < n; ++i) {
    ssd::StorageStack* stack = nullptr;
    if (is_hybrid(config_.design)) {
      // Page-cache sizing follows Linux defaults relative to the cache RAM:
      // dirty throttling at ~20% of memcached memory, page cache allowed to
      // use spare host RAM (4x the memcached arena).
      ssd::PageCacheConfig cache;
      cache.dirty_high_watermark = std::max<std::size_t>(per_server_memory / 5,
                                                         std::size_t{4} << 20);
      cache.dirty_low_watermark = cache.dirty_high_watermark / 2;
      // The paper's servers cap Memcached RAM far below host RAM, but the
      // page cache available to cached/mmap I/O is bounded in practice by
      // competing load; give it parity with the cache arena.
      cache.memory_limit = per_server_memory;
      storage_.push_back(
          std::make_unique<ssd::StorageStack>(config_.ssd, cache));
      stack = storage_.back().get();
      if (config_.ssd_faults.enabled()) {
        // Derive a per-server seed so the servers' error schedules differ
        // but the whole cluster stays reproducible from one config seed.
        ssd::SsdFaultProfile faults = config_.ssd_faults;
        faults.seed = mix64(config_.ssd_faults.seed + i);
        stack->device().set_fault_profile(faults);
      }
    }

    server::ServerConfig server_config = config_.server;
    server_config.name = std::string(to_string(config_.design)) + "-server-" +
                         std::to_string(i);
    server_config.async_processing = async_server(config_.design);
    server_config.manager.mode = is_hybrid(config_.design)
                                     ? store::StorageMode::kHybrid
                                     : store::StorageMode::kInMemory;
    server_config.manager.io_policy = io_policy(config_.design);
    // H-RDMA-Def swaps SSD-resident items back into RAM on access
    // (Ouyang'12 semantics); the optimised designs promote opportunistically.
    server_config.manager.force_promote = config_.design == Design::kHRdmaDef;
    server_config.manager.slab.memory_limit = per_server_memory;
    server_config.manager.ssd_limit = per_server_ssd;

    servers_.push_back(std::make_unique<server::MemcachedServer>(
        *fabric_, server_config, stack));
    servers_.back()->start();
  }
}

TestBed::~TestBed() {
  for (auto& server : servers_) server->stop();
}

std::unique_ptr<client::Client> TestBed::make_client(std::string name) {
  client::ClientConfig cfg;
  cfg.name = std::move(name);
  cfg.servers.reserve(servers_.size());
  for (const auto& server : servers_) cfg.servers.push_back(server->endpoint_id());
  cfg.bounce_slots = config_.client_bounce_slots;
  cfg.bounce_slot_bytes = config_.client_bounce_slot_bytes;
  cfg.use_backend_on_miss = !is_hybrid(config_.design);
  cfg.op_deadline = config_.client_op_deadline;
  cfg.max_retries = config_.client_max_retries;
  cfg.failover = config_.client_failover;
  cfg.retry_budget = config_.client_retry_budget;
  cfg.max_pending_per_server = config_.client_max_pending_per_server;
  cfg.propagate_deadline = config_.client_propagate_deadline;
  cfg.record_latency = config_.client_record_latency;
  cfg.batch_max_ops = config_.client_batch_max_ops;
  return std::make_unique<client::Client>(*fabric_, std::move(cfg), &backend_);
}

LatencyHistogram TestBed::server_span(metrics::Span span) const {
  LatencyHistogram merged;
  for (const auto& server : servers_) {
    if (const auto* rec = server->latency(); rec != nullptr) {
      merged.merge(rec->span_histogram(span));
    }
  }
  return merged;
}

std::uint64_t TestBed::server_ops_handled() const {
  std::uint64_t ops = 0;
  for (const auto& server : servers_) {
    if (const auto* rec = server->latency(); rec != nullptr) {
      for (std::size_t i = 0; i < metrics::kOpCount; ++i) {
        ops += rec->op_histogram(static_cast<metrics::Op>(i)).count();
      }
    }
  }
  return ops;
}

store::ManagerStats TestBed::store_stats() const {
  store::ManagerStats total;
  for (const auto& server : servers_) {
    metrics::merge(total, server->store_stats());
  }
  return total;
}

ssd::DeviceStats TestBed::device_stats() const {
  ssd::DeviceStats total;
  for (const auto& stack : storage_) {
    metrics::merge(total, stack->device().stats());
  }
  return total;
}

void TestBed::reset_metrics() {
  for (auto& server : servers_) server->reset_metrics();
  for (auto& stack : storage_) stack->device().reset_stats();
}

void TestBed::sync_storage() {
  for (auto& stack : storage_) stack->cache().sync();
}

}  // namespace hykv::core
