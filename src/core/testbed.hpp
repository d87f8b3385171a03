// TestBed: one fully wired deployment of a Design -- fabric, N Memcached
// servers with their storage stacks, and the backend database for the
// in-memory designs. This is the top-level object benches and examples
// build; clients are minted per application thread with make_client().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "client/backend_db.hpp"
#include "client/client.hpp"
#include "core/design.hpp"
#include "net/fabric.hpp"
#include "server/server.hpp"
#include "ssd/io_engine.hpp"

namespace hykv::core {

struct TestBedConfig {
  Design design = Design::kRdmaMem;
  unsigned num_servers = 1;
  /// Aggregated cache RAM across the cluster (paper: "aggregated memory of
  /// 1 GB"); split evenly over servers.
  std::size_t total_server_memory = std::size_t{64} << 20;
  SsdProfile ssd = SsdProfile::sata();
  /// Aggregated SSD usage cap (0 = unlimited); split evenly over servers.
  std::size_t total_ssd_limit = 0;
  BackendDbProfile backend{};
  /// Optional backend resolver so misses can be served without preloading
  /// the database (see client::BackendDb).
  client::BackendDb::Resolver backend_resolver = nullptr;

  /// Template every server is built from. TestBed copies it once per
  /// server and then sets only the fields it owns:
  /// - `name`;
  /// - `async_processing`, `manager.mode`, `manager.io_policy` and
  ///   `manager.force_promote`, from `design`;
  /// - `manager.slab.memory_limit` and `manager.ssd_limit`, split evenly
  ///   from total_server_memory and total_ssd_limit.
  /// Every other field reaches each server as set here. The default keeps
  /// one store shard, the paper's single slab manager (ManagerConfig's own
  /// default, 0, picks a count from the host's cores).
  server::ServerConfig server{.manager{.shards = 1}};

  std::size_t client_bounce_slots = 16;
  std::size_t client_bounce_slot_bytes = std::size_t{1} << 20;

  // ---- Fault-injection / failure-handling (chaos tests; all default-off,
  //      leaving the happy path byte-for-byte unchanged) ----
  /// Deterministic fabric faults (drop/duplicate/delay/link-down).
  net::FaultProfile fabric_faults = net::FaultProfile::none();
  /// Transient SSD I/O errors on every hybrid server's device.
  ssd::SsdFaultProfile ssd_faults{};
  /// Client failure policy handed to every make_client() (0 = no deadlines).
  sim::Nanos client_op_deadline{0};
  unsigned client_max_retries = 2;
  client::FailoverPolicy client_failover{};

  // ---- Overload control (DESIGN.md §8; all default-off) ----
  /// Client-side overload knobs handed to every make_client().
  std::uint64_t client_retry_budget = 0;
  std::size_t client_max_pending_per_server = 0;
  bool client_propagate_deadline = false;

  // ---- Observability (DESIGN.md §10) ----
  /// Client-side issue->complete histograms handed to every make_client().
  bool client_record_latency = true;

  // ---- Doorbell batching (DESIGN.md §12; default-off) ----
  /// TX coalescing bound handed to every make_client() (<=1 = off).
  std::size_t client_batch_max_ops = 1;
};

class TestBed {
 public:
  explicit TestBed(TestBedConfig config);
  ~TestBed();

  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  /// Creates a client wired to all servers of this bed (one per app thread).
  [[nodiscard]] std::unique_ptr<client::Client> make_client(std::string name);

  [[nodiscard]] Design design() const noexcept { return config_.design; }
  [[nodiscard]] const TestBedConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] client::BackendDb& backend() noexcept { return backend_; }
  [[nodiscard]] std::size_t num_servers() const noexcept { return servers_.size(); }
  [[nodiscard]] server::MemcachedServer& server(std::size_t i) {
    return *servers_[i];
  }

  /// One server span merged over all servers (empty for servers that do
  /// not record latency). Its sum_ns() over server_ops_handled() is the
  /// per-op time of a paper stage (DESIGN.md §10).
  [[nodiscard]] LatencyHistogram server_span(metrics::Span span) const;
  /// Requests all servers handled end to end: the sum of their op-histogram
  /// counts.
  [[nodiscard]] std::uint64_t server_ops_handled() const;
  /// Store stats summed over all servers.
  [[nodiscard]] store::ManagerStats store_stats() const;
  [[nodiscard]] ssd::DeviceStats device_stats() const;
  void reset_metrics();

  /// Blocks until all SSD write-back has drained (quiesce between phases).
  void sync_storage();

 private:
  TestBedConfig config_;
  std::unique_ptr<net::Fabric> fabric_;
  client::BackendDb backend_;
  std::vector<std::unique_ptr<ssd::StorageStack>> storage_;
  std::vector<std::unique_ptr<server::MemcachedServer>> servers_;
};

}  // namespace hykv::core
