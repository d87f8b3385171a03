// Chaos suite: YCSB-style traffic under seeded fault profiles across all
// three tiers of the failure model --
//   net    : message drop/duplication/delay + explicit link-down windows,
//   client : per-op deadlines, bounded retries, ring ejection/readmission,
//   server : transient SSD I/O errors and RAM-only degraded mode.
// The invariants checked here are the PR's contract: every request reaches a
// terminal status (nothing hangs), no bounce slot is ever leaked, the
// pending map drains, and counters balance. Fault schedules are pure
// functions of the profile seed, so failures reproduce under a fixed seed.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "store/hybrid_manager.hpp"
#include "ssd/io_engine.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

/// Terminal statuses a faulted run may legitimately produce. Anything else
/// (or a hang, which the ctest timeout converts into a failure) is a bug.
bool terminal_under_chaos(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
    case StatusCode::kNotFound:
    case StatusCode::kTimedOut:
    case StatusCode::kServerDown:
    case StatusCode::kIoError:
    case StatusCode::kOutOfMemory:
    case StatusCode::kBusy:  // shed by overload control: terminal, retryable
      return true;
    default:
      return false;
  }
}

/// Server-side balance invariant: every request a server accepted bumped
/// exactly one op-class counter, faults or not (duplicated/replayed messages
/// are requests too, so this holds on a lossy fabric).
void expect_server_counters_balance(TestBed& bed) {
  for (std::size_t s = 0; s < bed.num_servers(); ++s) {
    const auto counters = bed.server(s).counters();
    EXPECT_EQ(counters.requests, counters.ops_sum()) << "server " << s;
  }
}

/// Runs a mixed 40% set / 50% get / 10% del workload and returns the status
/// histogram. Every op is blocking, so merely returning proves termination.
std::map<StatusCode, int> run_mixed_ops(client::Client& client,
                                        int operations, std::uint64_t keys,
                                        std::size_t value_bytes,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::map<StatusCode, int> statuses;
  std::vector<char> out;
  for (int i = 0; i < operations; ++i) {
    const std::string key = make_key(rng() % keys);
    const auto dice = rng() % 10;
    StatusCode code;
    if (dice < 4) {
      code = client.set(key, make_value(rng() % keys, value_bytes));
    } else if (dice < 9) {
      code = client.get(key, out);
    } else {
      code = client.del(key);
    }
    ++statuses[code];
  }
  return statuses;
}

// ---------------------------------------------------------------------------
// Tier 1: lossy fabric. Messages are dropped, duplicated and delayed, yet
// every blocking op terminates inside its deadline and the client leaks
// nothing.
TEST_F(ChaosTest, LossyFabricAllRequestsTerminate) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.num_servers = 3;
  cfg.total_server_memory = 24 << 20;
  cfg.fabric_faults.drop_rate = 0.02;
  cfg.fabric_faults.duplicate_rate = 0.01;
  cfg.fabric_faults.delay_rate = 0.05;
  cfg.fabric_faults.extra_delay = sim::us(50);
  cfg.fabric_faults.seed = 0xC0FFEE;
  cfg.client_op_deadline = sim::ms(150);
  cfg.client_max_retries = 2;
  TestBed bed(cfg);
  auto client = bed.make_client("chaos");

  const int kOps = 400;
  const auto statuses = run_mixed_ops(*client, kOps, 64, 512, 1);

  int total = 0;
  for (const auto& [code, count] : statuses) {
    EXPECT_TRUE(terminal_under_chaos(code))
        << "unexpected status " << status_name(code);
    total += count;
  }
  EXPECT_EQ(total, kOps);  // every single op produced a verdict

  // Retries mean most ops still succeed despite 2% loss per message.
  EXPECT_GT(statuses.count(StatusCode::kOk) ? statuses.at(StatusCode::kOk) : 0,
            kOps / 2);

  // Nothing leaked: the bounce pool is whole and no request is in flight.
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);

  // The injector actually did something (the profile is not a no-op), and
  // the counters see it: drops recorded on the sending endpoints.
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  const auto client_stats = bed.fabric().endpoint(client->endpoint_id())->stats();
  dropped += client_stats.faults_dropped;
  duplicated += client_stats.faults_duplicated;
  for (std::size_t s = 0; s < bed.num_servers(); ++s) {
    const auto stats = bed.fabric().endpoint(bed.server(s).endpoint_id())->stats();
    dropped += stats.faults_dropped;
    duplicated += stats.faults_duplicated;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(duplicated, 0u);

  // Counters balance: each blocking op bumped exactly one op counter.
  const auto counters = client->counters();
  EXPECT_EQ(counters.sets + counters.gets + counters.deletes,
            static_cast<std::uint64_t>(kOps));
  // Each drop of a request or response costs one cancelled attempt.
  EXPECT_GT(counters.timeouts + counters.retries, 0u);
  expect_server_counters_balance(bed);
}

// ---------------------------------------------------------------------------
// Tier 2: server-down window. The victim's keys fail over to the surviving
// server after ejection, requests never hang, and the dead server is
// readmitted by a half-open probe once the link heals.
TEST_F(ChaosTest, ServerDownWindowEjectsAndReadmits) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.num_servers = 2;
  cfg.total_server_memory = 16 << 20;
  cfg.fabric_faults.arm = true;  // link-down windows only, no random faults
  cfg.client_op_deadline = sim::ms(40);
  cfg.client_max_retries = 1;
  cfg.client_failover.eject_after = 2;
  cfg.client_failover.reprobe_after = sim::ms(60);
  TestBed bed(cfg);
  auto client = bed.make_client("chaos");

  // Find a key owned by server 0 so the window provably hits its owner.
  const net::EndpointId victim = bed.server(0).endpoint_id();
  std::string victim_key;
  for (std::uint64_t i = 0; i < 256; ++i) {
    if (client->ring().select(make_key(i)) == victim) {
      victim_key = make_key(i);
      break;
    }
  }
  ASSERT_FALSE(victim_key.empty());
  const auto value = make_value(7, 256);
  ASSERT_EQ(client->set(victim_key, value), StatusCode::kOk);

  bed.fabric().set_link_down(victim, true);

  // Every op terminates; after eject_after consecutive timeouts the ring
  // remaps the key to the live server and ops succeed again (failover).
  int successes_during_window = 0;
  for (int i = 0; i < 6; ++i) {
    const StatusCode code = client->set(victim_key, value);
    EXPECT_TRUE(terminal_under_chaos(code)) << status_name(code);
    if (ok(code)) ++successes_during_window;
  }
  EXPECT_EQ(client->ring().dead_count(), 1u);
  EXPECT_TRUE(client->ring().is_dead(victim));
  EXPECT_GT(successes_during_window, 0);  // failed over, not stuck
  const auto mid = client->counters();
  EXPECT_GT(mid.timeouts, 0u);

  // Heal the link, wait out the probe timer, and keep issuing: the
  // half-open probe readmits the server.
  bed.fabric().set_link_down(victim, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  bool readmitted = false;
  for (int i = 0; i < 50 && !readmitted; ++i) {
    (void)client->set(victim_key, value);
    readmitted = !client->ring().is_dead(victim);
    if (!readmitted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(readmitted);
  EXPECT_EQ(client->ring().dead_count(), 0u);
  EXPECT_EQ(client->set(victim_key, value), StatusCode::kOk);
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
  expect_server_counters_balance(bed);
}

// ---------------------------------------------------------------------------
// Tier 3: failing SSD. The hybrid manager enters RAM-only degraded mode
// after repeated I/O errors (dropping evictions instead of wedging stores)
// and leaves it via a successful half-open flush once the device heals.
TEST_F(ChaosTest, SsdOutageDegradesToRamOnlyAndHeals) {
  ssd::StorageStack stack(SsdProfile::sata(), ssd::PageCacheConfig{});
  store::ManagerConfig cfg;
  cfg.mode = store::StorageMode::kHybrid;
  cfg.slab.slab_bytes = 64 << 10;
  cfg.slab.memory_limit = 256 << 10;  // tiny RAM: flushes start immediately
  cfg.degrade_after_io_errors = 2;
  cfg.heal_probe_after = sim::ms(20);
  store::HybridSlabManager manager(cfg, &stack);

  stack.device().set_failed(true);  // hard outage from the start

  const auto value = make_value(1, 4 << 10);
  for (std::uint64_t i = 0; i < 200; ++i) {
    // Every set must succeed: the manager degrades instead of failing or
    // blocking behind the dead device.
    ASSERT_EQ(manager.store(make_key(i), value, 0, 0), StatusCode::kOk)
        << i;
  }
  auto stats = manager.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.io_errors, 2u);
  EXPECT_GT(stats.dropped_evictions, 0u);  // data loss is counted, not silent
  EXPECT_EQ(stats.ssd_live_bytes, 0u);     // nothing ever became durable
  EXPECT_GT(stack.device().stats().io_errors, 0u);

  // Recently stored items are still served from RAM while degraded.
  std::vector<char> out;
  std::uint32_t flags = 0;
  EXPECT_EQ(manager.get(make_key(199), out, flags), StatusCode::kOk);
  EXPECT_EQ(out, value);

  // Device heals; after the probe timer the next flush succeeds and the
  // manager leaves degraded mode.
  stack.device().set_failed(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (std::uint64_t i = 200; i < 400; ++i) {
    ASSERT_EQ(manager.store(make_key(i), value, 0, 0), StatusCode::kOk)
        << i;
  }
  stats = manager.stats();
  EXPECT_FALSE(stats.degraded);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.ssd_live_bytes, 0u);
}

// ---------------------------------------------------------------------------
// All three tiers at once -- the acceptance profile: >= 1% message loss, a
// server-down window in the middle, and a 0.5% SSD error rate, on a hybrid
// design whose working set overflows to flash.
TEST_F(ChaosTest, FullStackChaosEveryRequestCompletes) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptBlock;
  cfg.num_servers = 2;
  cfg.total_server_memory = 512 << 10;  // 256 KiB/server: force SSD overflow
  cfg.server.manager.slab.slab_bytes = 64 << 10;
  cfg.fabric_faults.drop_rate = 0.01;
  cfg.fabric_faults.duplicate_rate = 0.005;
  cfg.fabric_faults.seed = 42;
  cfg.ssd_faults.error_rate = 0.005;
  cfg.ssd_faults.seed = 42;
  cfg.server.manager.degrade_after_io_errors = 3;
  cfg.server.manager.heal_probe_after = sim::ms(20);
  cfg.client_op_deadline = sim::ms(150);
  cfg.client_max_retries = 2;
  cfg.client_failover.eject_after = 3;
  cfg.client_failover.reprobe_after = sim::ms(50);
  TestBed bed(cfg);
  auto client = bed.make_client("chaos");

  const std::uint64_t kKeys = 512;
  const std::size_t kValueBytes = 4 << 10;
  const int kPhaseOps = 150;

  // Phase 1: chaos without the window.
  auto statuses = run_mixed_ops(*client, kPhaseOps, kKeys, kValueBytes, 11);

  // Phase 2: one server goes dark mid-run.
  const net::EndpointId victim = bed.server(1).endpoint_id();
  bed.fabric().set_link_down(victim, true);
  for (const auto& [code, count] :
       run_mixed_ops(*client, kPhaseOps, kKeys, kValueBytes, 12)) {
    statuses[code] += count;
  }

  // Phase 3: it comes back; the ring readmits it on a successful probe.
  bed.fabric().set_link_down(victim, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  for (const auto& [code, count] :
       run_mixed_ops(*client, kPhaseOps, kKeys, kValueBytes, 13)) {
    statuses[code] += count;
  }

  int total = 0;
  int successes = 0;
  for (const auto& [code, count] : statuses) {
    EXPECT_TRUE(terminal_under_chaos(code))
        << "unexpected status " << status_name(code);
    total += count;
    if (ok(code) || code == StatusCode::kNotFound) successes += count;
  }
  EXPECT_EQ(total, 3 * kPhaseOps);
  EXPECT_GT(successes, total / 2);  // the cluster stayed useful throughout

  // Leak invariants hold after the full ordeal.
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);

  // Counters balance and the hybrid tier did real work under fire.
  const auto counters = client->counters();
  EXPECT_EQ(counters.sets + counters.gets + counters.deletes,
            static_cast<std::uint64_t>(total));
  const auto store = bed.store_stats();
  EXPECT_GT(store.flushes, 0u);  // the working set really overflowed
  expect_server_counters_balance(bed);
}

// ---------------------------------------------------------------------------
// Sharded store under fire: the same full-stack chaos profile on servers
// running 4 store shards each. Shards degrade and heal independently, so the
// invariants are the aggregate ones: every request terminates, counters
// balance, and no shard wedges the others.
TEST_F(ChaosTest, ShardedStoreSurvivesFullStackChaos) {
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.num_servers = 2;
  cfg.server.manager.shards = 4;
  cfg.server.processing_threads = 2;
  cfg.total_server_memory = 4 << 20;  // 2 MiB/server over 4 shards
  cfg.server.manager.slab.slab_bytes = 64 << 10;
  cfg.fabric_faults.drop_rate = 0.01;
  cfg.fabric_faults.seed = 7;
  cfg.ssd_faults.error_rate = 0.01;
  cfg.ssd_faults.seed = 7;
  cfg.server.manager.degrade_after_io_errors = 2;
  cfg.server.manager.heal_probe_after = sim::ms(20);
  cfg.client_op_deadline = sim::ms(150);
  cfg.client_max_retries = 2;
  TestBed bed(cfg);
  for (std::size_t s = 0; s < bed.num_servers(); ++s) {
    ASSERT_EQ(bed.server(s).manager().num_shards(), 4u);
  }
  auto client = bed.make_client("chaos");

  const int kOps = 400;
  const auto statuses = run_mixed_ops(*client, kOps, 256, 4 << 10, 21);

  int total = 0;
  for (const auto& [code, count] : statuses) {
    EXPECT_TRUE(terminal_under_chaos(code))
        << "unexpected status " << status_name(code);
    total += count;
  }
  EXPECT_EQ(total, kOps);
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
  expect_server_counters_balance(bed);

  // The sharded hybrid tier did real work, and any degradation stayed
  // partial or healed -- never more degraded shards than exist.
  const auto store = bed.store_stats();
  EXPECT_GT(store.sets, 0u);
  EXPECT_LE(store.degraded_shards, 2u * 4u);
  if (store.degraded) {
    EXPECT_GT(store.degraded_shards, 0u);
  }
}

// ---------------------------------------------------------------------------
// Metastable retry storm (overload control, DESIGN.md §8). A link-down
// window turns every op into a full retry fan-out: with an unlimited retry
// budget the client amplifies the outage (every op burns all its retries
// against the dead link -- the classic storm that keeps a recovering system
// saturated). With a retry budget the bucket drains once, the storm damps,
// and after the window the client reaches a majority-success steady state.
// Every request terminates with a terminal status in both modes -- the
// storm is a throughput pathology, never a hang.
TEST_F(ChaosTest, RetryBudgetDampsRetryStorm) {
  struct StormResult {
    std::uint64_t window_retries = 0;
    std::uint64_t budget_exhausted = 0;
    int recovery_ok = 0;
    int recovery_total = 0;
  };

  const auto run_storm = [&](std::uint64_t retry_budget) -> StormResult {
    TestBedConfig cfg;
    cfg.design = Design::kRdmaMem;
    cfg.num_servers = 1;
    cfg.total_server_memory = 8 << 20;
    cfg.fabric_faults.arm = true;  // link-down windows only, no random faults
    // Generous deadline so every attempt's slice survives sanitizer
    // slowdown -- the storm/damping contrast, not timing, is under test.
    cfg.client_op_deadline = sim::ms(60);
    cfg.client_max_retries = 4;
    // No ejection: ring failover would damp the storm by failing fast, and
    // this test isolates the *budget* as the damping mechanism.
    cfg.client_failover.eject_after = 1u << 30;
    cfg.client_retry_budget = retry_budget;
    TestBed bed(cfg);
    auto client = bed.make_client("storm");
    const net::EndpointId server = bed.server(0).endpoint_id();
    const auto value = make_value(3, 256);

    // Warm phase: healthy traffic (also fills the refund ledger).
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(client->set(make_key(static_cast<std::uint64_t>(i)), value),
                StatusCode::kOk);
    }
    const auto warm = client->counters();

    // Fault window: the only server goes dark; every op must still
    // terminate (kTimedOut here -- nothing hangs).
    bed.fabric().set_link_down(server, true);
    constexpr int kWindowOps = 12;
    for (int i = 0; i < kWindowOps; ++i) {
      const StatusCode code =
          client->set(make_key(static_cast<std::uint64_t>(i)), value);
      EXPECT_TRUE(terminal_under_chaos(code)) << status_name(code);
      EXPECT_FALSE(ok(code));
    }
    const auto mid = client->counters();

    // Recovery phase: the link heals; a damped client converges to
    // majority success immediately.
    bed.fabric().set_link_down(server, false);
    StormResult result;
    constexpr int kRecoveryOps = 30;
    for (int i = 0; i < kRecoveryOps; ++i) {
      const StatusCode code =
          client->set(make_key(static_cast<std::uint64_t>(i)), value);
      EXPECT_TRUE(terminal_under_chaos(code)) << status_name(code);
      if (ok(code)) ++result.recovery_ok;
      ++result.recovery_total;
    }

    EXPECT_EQ(client->pending_requests(), 0u);
    EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);
    expect_server_counters_balance(bed);

    result.window_retries = mid.retries - warm.retries;
    result.budget_exhausted = client->counters().retry_budget_exhausted;
    return result;
  };

  const StormResult storm = run_storm(/*retry_budget=*/0);   // unlimited
  const StormResult damped = run_storm(/*retry_budget=*/5);

  // Unlimited budget: the window really was a storm -- retry attempts at
  // least matched the primary ops (each op wants max_retries of them; the
  // floor is loose so sanitizer slowdown cannot flake it).
  EXPECT_GE(storm.window_retries, 10u);
  EXPECT_EQ(storm.budget_exhausted, 0u);

  // Budgeted: the bucket (5 tokens, no refunds while the link is dark)
  // bounds the whole window's retry amplification to the budget.
  EXPECT_LE(damped.window_retries, 5u);
  EXPECT_GT(damped.budget_exhausted, 0u);
  EXPECT_LT(damped.window_retries, storm.window_retries);

  // Both reach majority success after the window; the damped client lost
  // none of its steady-state health to the budget.
  EXPECT_GT(storm.recovery_ok, storm.recovery_total / 2);
  EXPECT_GT(damped.recovery_ok, damped.recovery_total / 2);
}

// ---------------------------------------------------------------------------
// Doorbell batching under a lossy fabric (DESIGN.md §12). A dropped kOpBatch
// frame (or its batched response) takes several ops down with one message --
// the contract is that each affected op STILL terminates individually at its
// own deadline, later rounds keep working, and nothing leaks. Batching
// changes the blast radius of a drop, never the per-op semantics.
TEST_F(ChaosTest, BatchedFramesUnderDropFaultsTimeOutPerOp) {
  // Slightly slower clock so the TX engine's per-op costs let the queue
  // build up and coalescing actually happens under test.
  sim::set_time_scale(0.2);
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.num_servers = 2;
  cfg.total_server_memory = 16 << 20;
  cfg.fabric_faults.drop_rate = 0.05;
  cfg.fabric_faults.seed = 0xBA7C4;
  cfg.client_op_deadline = sim::ms(150);
  cfg.client_max_retries = 2;
  cfg.client_batch_max_ops = 8;
  cfg.client_bounce_slot_bytes = 4096;
  TestBed bed(cfg);
  auto client = bed.make_client("chaos-batch");

  const std::uint64_t kKeys = 64;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back(make_key(i));
    // Blocking seed sets ride the retry loop through the drops; any terminal
    // status is acceptable (a dropped set just leaves a future miss).
    const StatusCode code = client->set(keys.back(), make_value(i, 512));
    EXPECT_TRUE(terminal_under_chaos(code)) << status_name(code);
  }

  // Several mget rounds: every key must reach a terminal per-op verdict each
  // round, whatever frames the injector ate.
  int values_seen = 0;
  for (int round = 0; round < 4; ++round) {
    const auto results = client->mget_status(keys);
    ASSERT_EQ(results.size(), keys.size());
    for (const auto& result : results) {
      EXPECT_TRUE(terminal_under_chaos(result.status()))
          << status_name(result.status());
      if (result.ok()) ++values_seen;
    }
  }
  EXPECT_GT(values_seen, 0);  // the cluster stayed useful

  // Coalescing really happened, and the loss of whole frames leaked nothing:
  // the pending map drained and the bounce pool is whole.
  const auto cc = client->counters();
  EXPECT_GE(cc.batches_sent, 1u);
  EXPECT_GE(cc.batched_ops, 2u * cc.batches_sent);
  EXPECT_EQ(client->pending_requests(), 0u);
  EXPECT_EQ(client->free_bounce_slots(), cfg.client_bounce_slots);

  // Server-side accounting stayed exact per sub-op on whatever arrived.
  expect_server_counters_balance(bed);
  std::uint64_t server_batches = 0;
  for (std::size_t s = 0; s < bed.num_servers(); ++s) {
    server_batches += bed.server(s).counters().batches;
  }
  // Frames can be dropped in flight but never invented.
  EXPECT_LE(server_batches, cc.batches_sent);
}

}  // namespace
}  // namespace hykv
