// FaultInjector unit tests: schedule determinism (the chaos suite's
// reproducibility hinges on it), per-class independence, link-down windows,
// per-endpoint fault counters, and the zero-overhead contract of
// FaultProfile::none().
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "net/fabric.hpp"

namespace hykv::net {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(1.0);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

std::vector<MessageFault> schedule(FaultInjector& injector, EndpointId src,
                                   EndpointId dst, int n) {
  std::vector<MessageFault> verdicts;
  verdicts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) verdicts.push_back(injector.on_message(src, dst));
  return verdicts;
}

TEST_F(FaultTest, SameSeedSameSchedule) {
  FaultProfile profile;
  profile.drop_rate = 0.1;
  profile.duplicate_rate = 0.05;
  profile.delay_rate = 0.2;
  profile.extra_delay = sim::us(10);
  profile.seed = 1234;

  FaultInjector a(profile);
  FaultInjector b(profile);
  const auto sa = schedule(a, 1, 2, 500);
  const auto sb = schedule(b, 1, 2, 500);
  int faults = 0;
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(sa[static_cast<std::size_t>(i)].drop,
              sb[static_cast<std::size_t>(i)].drop) << i;
    EXPECT_EQ(sa[static_cast<std::size_t>(i)].duplicate,
              sb[static_cast<std::size_t>(i)].duplicate) << i;
    EXPECT_EQ(sa[static_cast<std::size_t>(i)].extra_delay,
              sb[static_cast<std::size_t>(i)].extra_delay) << i;
    if (sa[static_cast<std::size_t>(i)].drop) ++faults;
  }
  // ~10% of 500 messages drop; the exact count is seed-determined.
  EXPECT_GT(faults, 20);
  EXPECT_LT(faults, 120);
}

TEST_F(FaultTest, DifferentSeedsDifferentSchedules) {
  FaultProfile profile;
  profile.drop_rate = 0.5;
  profile.seed = 1;
  FaultInjector a(profile);
  profile.seed = 2;
  FaultInjector b(profile);
  const auto sa = schedule(a, 1, 2, 128);
  const auto sb = schedule(b, 1, 2, 128);
  int differing = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].drop != sb[i].drop) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST_F(FaultTest, PairStreamsAreIndependent) {
  // Interleaving traffic on an unrelated pair must not perturb a pair's
  // schedule -- per-pair ordinals make the schedule a property of the pair's
  // own traffic, not of global interleaving.
  FaultProfile profile;
  profile.drop_rate = 0.3;
  profile.seed = 99;
  FaultInjector quiet(profile);
  FaultInjector noisy(profile);
  const auto expected = schedule(quiet, 1, 2, 100);
  std::vector<MessageFault> interleaved;
  for (int i = 0; i < 100; ++i) {
    (void)noisy.on_message(3, 4);  // unrelated pair chatter
    interleaved.push_back(noisy.on_message(1, 2));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].drop, interleaved[i].drop) << i;
  }
}

TEST_F(FaultTest, LinkDownDropsEverythingUntilRestored) {
  FaultProfile profile;
  profile.arm = true;  // no random faults, windows only
  FaultInjector injector(profile);
  EXPECT_FALSE(injector.on_message(1, 2).drop);
  injector.set_link_down(2, true);
  EXPECT_TRUE(injector.link_down(1, 2));
  EXPECT_TRUE(injector.link_down(2, 1));  // both directions
  injector.set_link_down(2, false);
  EXPECT_FALSE(injector.link_down(1, 2));
  EXPECT_FALSE(injector.on_message(1, 2).drop);
}

TEST_F(FaultTest, DroppedMessagesNeverArriveAndAreCounted) {
  FaultProfile profile;
  profile.drop_rate = 1.0;  // every message lost
  Fabric fabric(FabricProfile::fdr_rdma(), profile);
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  const auto payload = make_value(1, 512);
  for (int i = 0; i < 5; ++i) {
    a->send(b->id(), 1, static_cast<std::uint64_t>(i), payload);
  }
  EXPECT_FALSE(b->recv_for(sim::ms(20)).ok());
  EXPECT_EQ(a->stats().faults_dropped, 5u);
  EXPECT_EQ(b->stats().recvs, 0u);
}

TEST_F(FaultTest, DuplicatedMessagesArriveTwice) {
  FaultProfile profile;
  profile.duplicate_rate = 1.0;  // every message doubled
  Fabric fabric(FabricProfile::fdr_rdma(), profile);
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  a->send(b->id(), 1, 7, make_value(2, 64));
  ASSERT_TRUE(b->recv().ok());
  const auto ghost = b->recv_for(sim::ms(200));
  ASSERT_TRUE(ghost.ok());
  EXPECT_EQ(ghost.value().wr_id, 7u);
  EXPECT_EQ(a->stats().faults_duplicated, 1u);
}

TEST_F(FaultTest, LinkDownWindowBlocksTrafficEndToEnd) {
  FaultProfile profile;
  profile.arm = true;
  Fabric fabric(FabricProfile::fdr_rdma(), profile);
  auto a = fabric.create_endpoint("a");
  auto b = fabric.create_endpoint("b");
  fabric.set_link_down(b->id(), true);
  a->send(b->id(), 1, 1, make_value(3, 64));
  EXPECT_FALSE(b->recv_for(sim::ms(20)).ok());
  EXPECT_EQ(a->stats().faults_link_down, 1u);
  fabric.set_link_down(b->id(), false);
  a->send(b->id(), 1, 2, make_value(3, 64));
  const auto msg = b->recv_for(sim::ms(500));
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().wr_id, 2u);
}

TEST_F(FaultTest, NoneProfileConstructsNoInjector) {
  // The zero-overhead contract: a perfect fabric never builds the injector,
  // so the data path pays exactly one null-pointer check.
  Fabric perfect(FabricProfile::fdr_rdma());
  EXPECT_EQ(perfect.faults(), nullptr);
  Fabric armed(FabricProfile::fdr_rdma(), FaultProfile{.arm = true});
  EXPECT_NE(armed.faults(), nullptr);
  EXPECT_FALSE(FaultProfile::none().enabled());

  // And a faultless run through it behaves like the plain fabric.
  auto a = perfect.create_endpoint("a");
  auto b = perfect.create_endpoint("b");
  a->send(b->id(), 1, 1, make_value(4, 128));
  ASSERT_TRUE(b->recv().ok());
  const auto stats = a->stats();
  EXPECT_EQ(stats.faults_dropped + stats.faults_duplicated +
                stats.faults_delayed + stats.faults_link_down,
            0u);
}

}  // namespace
}  // namespace hykv::net
