// Deferred SSD reads on the async server (DESIGN.md §13): a plain GET whose
// key sits on the SSD leaves its flash read to a completion thread, so the
// worker moves on. Most of these tests hold the single SATA channel from a
// helper thread, which keeps every deferred read pending for as long as they
// need.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "net/fabric.hpp"
#include "server/server.hpp"
#include "ssd/io_engine.hpp"

namespace hykv {
namespace {

constexpr std::size_t kValueBytes = 16 << 10;
constexpr std::size_t kRamBytes = 4 << 20;
/// ~1.5x RAM of 16 KB values: the first keys written end up on the SSD.
constexpr std::uint64_t kKeys = 3 * kRamBytes / (2 * kValueBytes);
/// ~190 ms of SATA channel time at time scale 1.
constexpr std::size_t kHoldBytes = std::size_t{100} << 20;

/// An async hybrid server with one worker and direct I/O, so every
/// SSD-resident GET reads the device, and one client without retries.
class Rig {
 public:
  explicit Rig(std::size_t max_inflight = 0)
      : server_(fabric_, config(max_inflight), &storage_) {
    server_.start();
    client::ClientConfig cfg;
    cfg.servers = {server_.endpoint_id()};
    cfg.max_retries = 0;
    client_ = std::make_unique<client::Client>(fabric_, std::move(cfg));
  }

  /// Stores keys [from, to) at time scale 0, then waits for the flushes.
  void fill(std::uint64_t from, std::uint64_t to) {
    const sim::ScopedTimeScale instant(0.0);
    for (std::uint64_t k = from; k < to; ++k) {
      ASSERT_EQ(client_->set(make_key(k), make_value(k, kValueBytes)),
                StatusCode::kOk);
    }
    server_.manager().sync_storage();
  }

  /// Occupies the SSD's one channel from a helper thread; join() the
  /// returned thread. Returns once the helper holds the channel.
  std::thread hold_channel() {
    std::thread holder([this] { storage_.device().occupy_read(kHoldBytes); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return holder;
  }

  client::Client& client() { return *client_; }
  server::MemcachedServer& server() { return server_; }

 private:
  static server::ServerConfig config(std::size_t max_inflight) {
    server::ServerConfig cfg;
    cfg.async_processing = true;
    cfg.max_inflight = max_inflight;
    cfg.manager.mode = store::StorageMode::kHybrid;
    cfg.manager.io_policy = store::IoPolicy::kDirectAll;
    cfg.manager.shards = 1;
    cfg.manager.slab.memory_limit = kRamBytes;
    cfg.manager.slab.slab_bytes = 256 << 10;
    return cfg;
  }

  net::Fabric fabric_{FabricProfile::fdr_rdma()};
  ssd::StorageStack storage_{SsdProfile::sata(), ssd::PageCacheConfig{}};
  server::MemcachedServer server_;
  std::unique_ptr<client::Client> client_;
};

class DeferredReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(1.0);
  }
};

TEST_F(DeferredReadTest, RamGetCompletesWhileSsdGetWaitsForTheChannel) {
  Rig rig;
  rig.fill(0, kKeys);
  const std::uint64_t ssd_key = 0;
  const std::uint64_t ram_key = kKeys - 1;
  const std::uint64_t ssd_hits = rig.server().store_stats().ssd_hits;

  std::thread holder = rig.hold_channel();
  std::vector<char> ssd_out(kValueBytes);
  std::vector<char> ram_out(kValueBytes);
  client::Request ssd_req;
  client::Request ram_req;
  ASSERT_EQ(rig.client().iget(make_key(ssd_key), ssd_out, ssd_req),
            StatusCode::kOk);
  ASSERT_EQ(rig.client().iget(make_key(ram_key), ram_out, ram_req),
            StatusCode::kOk);
  rig.client().wait(ram_req);
  // The one worker served the RAM GET behind the SSD GET's lookup, while
  // the SSD GET still waits for the channel on a completion thread.
  EXPECT_FALSE(rig.client().test(ssd_req));
  rig.client().wait(ssd_req);
  holder.join();

  ASSERT_EQ(ram_req.status(), StatusCode::kOk);
  ASSERT_EQ(ssd_req.status(), StatusCode::kOk);
  EXPECT_EQ(ram_out, make_value(ram_key, kValueBytes));
  EXPECT_EQ(ssd_out, make_value(ssd_key, kValueBytes));
  EXPECT_EQ(rig.server().store_stats().ssd_hits, ssd_hits + 1);
}

TEST_F(DeferredReadTest, GetReturnsThePinnedRecordEvenIfALaterSetCommitsFirst) {
  Rig rig;
  const std::string key = make_key(0);
  const std::vector<char> old_value = make_value(0, kValueBytes);
  ASSERT_EQ(rig.client().set(key, old_value), StatusCode::kOk);
  std::vector<char> out;
  std::uint64_t cas = 0;
  ASSERT_EQ(rig.client().gets(key, out, nullptr, &cas), StatusCode::kOk);
  // Twice the usual fill: the gets above earned the key a second chance
  // at the LRU tail.
  rig.fill(1, 2 * kKeys);

  // A deferred gets returns the CAS of the bytes it returned: the flush
  // kept the item's CAS.
  std::uint64_t ssd_cas = 0;
  const std::uint64_t ssd_hits = rig.server().store_stats().ssd_hits;
  ASSERT_EQ(rig.client().gets(key, out, nullptr, &ssd_cas), StatusCode::kOk);
  EXPECT_EQ(rig.server().store_stats().ssd_hits, ssd_hits + 1);
  EXPECT_EQ(out, old_value);
  EXPECT_EQ(ssd_cas, cas);

  // The read may have promoted the key: push it back to the SSD. Then free
  // a RAM chunk, so the SET below needs no flush and with it no channel.
  rig.fill(2 * kKeys, 4 * kKeys);
  ASSERT_EQ(rig.client().del(make_key(4 * kKeys - 1)), StatusCode::kOk);

  std::thread holder = rig.hold_channel();
  const std::vector<char> new_value = make_value(1000, kValueBytes);
  std::vector<char> got(kValueBytes);
  client::Request get_req;
  client::Request set_req;
  ASSERT_EQ(rig.client().iget(key, got, get_req), StatusCode::kOk);
  ASSERT_EQ(rig.client().iset(key, new_value, 0, 0, set_req), StatusCode::kOk);
  rig.client().wait(set_req);
  ASSERT_EQ(set_req.status(), StatusCode::kOk);
  EXPECT_FALSE(rig.client().test(get_req));
  rig.client().wait(get_req);
  holder.join();

  // The GET took effect at its lookup, before the SET: the old bytes.
  ASSERT_EQ(get_req.status(), StatusCode::kOk);
  EXPECT_EQ(got, old_value);
  std::uint64_t new_cas = 0;
  ASSERT_EQ(rig.client().gets(key, out, nullptr, &new_cas), StatusCode::kOk);
  EXPECT_EQ(out, new_value);
  EXPECT_NE(new_cas, cas);
}

TEST_F(DeferredReadTest, StopDrainsDeferredReadsAndKeepsTheCountersBalanced) {
  Rig rig;
  rig.fill(0, kKeys);
  constexpr std::uint64_t kReads = 8;
  const std::uint64_t gets = rig.server().counters().gets;

  std::thread holder = rig.hold_channel();
  std::vector<std::vector<char>> outs(kReads, std::vector<char>(kValueBytes));
  std::vector<client::Request> reqs(kReads);
  for (std::uint64_t k = 0; k < kReads; ++k) {
    ASSERT_EQ(rig.client().iget(make_key(k), outs[k], reqs[k]),
              StatusCode::kOk);
  }
  // Every GET is dispatched and counted; their reads wait on the channel.
  while (rig.server().counters().gets < gets + kReads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(rig.client().test(reqs[0]));
  rig.server().stop();
  holder.join();

  const server::ServerCounters counters = rig.server().counters();
  EXPECT_EQ(counters.requests, counters.ops_sum());
  // stop() sent every deferred reply before it returned.
  for (std::uint64_t k = 0; k < kReads; ++k) {
    rig.client().wait(reqs[k]);
    ASSERT_EQ(reqs[k].status(), StatusCode::kOk);
    EXPECT_EQ(outs[k], make_value(k, kValueBytes));
  }
}

TEST_F(DeferredReadTest, DeferredGetHoldsItsAdmissionSlotUntilItsReplyIsSent) {
  Rig rig(/*max_inflight=*/1);
  rig.fill(0, kKeys);
  const std::uint64_t shed = rig.server().counters().shed;

  std::thread holder = rig.hold_channel();
  std::vector<char> ssd_out(kValueBytes);
  client::Request ssd_req;
  ASSERT_EQ(rig.client().iget(make_key(0), ssd_out, ssd_req), StatusCode::kOk);
  while (rig.server().counters().gets == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The deferred GET has left the worker but still fills the window.
  std::vector<char> out;
  EXPECT_EQ(rig.client().get(make_key(kKeys - 1), out), StatusCode::kBusy);
  EXPECT_EQ(rig.server().counters().shed, shed + 1);
  rig.client().wait(ssd_req);
  holder.join();
  ASSERT_EQ(ssd_req.status(), StatusCode::kOk);
  EXPECT_EQ(ssd_out, make_value(0, kValueBytes));

  // The slot frees right after the reply goes out.
  StatusCode code = StatusCode::kBusy;
  for (int i = 0; i < 1000 && code == StatusCode::kBusy; ++i) {
    code = rig.client().get(make_key(kKeys - 1), out);
    if (code == StatusCode::kBusy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(code, StatusCode::kOk);
  EXPECT_EQ(out, make_value(kKeys - 1, kValueBytes));
}

TEST_F(DeferredReadTest, ClosedLoopClientAtOneInflightIsNeverShed) {
  // One blocking client without retries or a deadline sends its next request
  // only after the previous reply arrived. The server frees a request's slot
  // before it sends the reply, on the worker and on the completion path, so
  // at max_inflight = 1 no request of this client may find the slot taken.
  Rig rig(/*max_inflight=*/1);
  const sim::ScopedTimeScale instant(0.0);
  constexpr std::uint64_t kRounds = 1200;  // one set and one get per round
  std::vector<char> out;
  for (std::uint64_t k = 0; k < kRounds; ++k) {
    ASSERT_EQ(rig.client().set(make_key(k), make_value(k, kValueBytes)),
              StatusCode::kOk)
        << k;
    // Every other GET reads the key set kKeys rounds ago: it sits on the
    // SSD by then, so a completion thread sends that reply.
    const std::uint64_t key = k % 2 == 1 && k >= kKeys ? k - kKeys : k;
    ASSERT_EQ(rig.client().get(make_key(key), out), StatusCode::kOk) << key;
    ASSERT_EQ(out, make_value(key, kValueBytes)) << key;
  }
  EXPECT_EQ(rig.server().counters().shed, 0u);
  EXPECT_GT(rig.server().store_stats().ssd_hits, 0u);
}

}  // namespace
}  // namespace hykv
