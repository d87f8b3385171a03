// Server metrics: the stats-text renderer (regression for the old fixed
// snprintf buffer, which could truncate/overread once counters grew wide),
// the touch op counter, the requests == ops_sum() balance invariant of the
// de-serialized per-worker counter slots, and the `stats latency` / `stats
// trace` observability surface (schema round-trips, legacy byte-identity).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "client/client.hpp"
#include "common/metrics.hpp"
#include "common/random.hpp"
#include "common/sim_time.hpp"
#include "core/testbed.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace hykv {
namespace {

using core::Design;
using core::TestBed;
using core::TestBedConfig;

// ---------------------------------------------------------------------------
// Renderer unit tests (no server needed: render_stats_text is a free
// function precisely so it can be fed adversarial counter values).

std::map<std::string, std::uint64_t> parse_stats(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stoull(line.substr(space + 1));
  }
  return out;
}

// Every field of a counter family at its type's maximum (degraded = true),
// built from the family's field list so a new field is covered too.
template <typename Family>
Family maximal() {
  Family family;
  Family::for_each_field([&family](std::string_view, auto field) {
    using T = std::remove_cvref_t<decltype(family.*field)>;
    family.*field = std::numeric_limits<T>::max();
  });
  return family;
}

TEST(RenderStatsTest, MaximalCountersRenderCompletelyAndWellFormed) {
  store::SlabStats slab;
  slab.slab_pages = std::numeric_limits<std::size_t>::max();
  slab.reserved_bytes = std::numeric_limits<std::size_t>::max();
  slab.used_chunks = std::numeric_limits<std::size_t>::max();

  const std::string text = server::render_stats_text(
      maximal<server::ServerCounters>(), maximal<store::ManagerStats>(), slab,
      std::numeric_limits<std::size_t>::max(), 256);

  // The old fixed-size buffer truncated exactly this case; the renderer
  // must now emit every line in full, terminated, with no embedded NULs.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find('\0'), std::string::npos);

  const std::string max64 = std::to_string(std::numeric_limits<std::uint64_t>::max());
  for (const char* name :
       {"requests", "sets", "gets", "deletes", "touches", "admin", "malformed",
        "shed", "expired_on_arrival",
        "items", "ram_hits", "ssd_hits", "misses", "expired",
        "optimistic_hits", "optimistic_retries", "locked_fallbacks", "flushes",
        "flushed_bytes", "promotions", "dropped_evictions", "ssd_live_bytes",
        "io_errors", "degraded", "degraded_shards", "shards", "slab_pages",
        "slab_reserved_bytes", "slab_used_chunks"}) {
    EXPECT_NE(text.find(std::string(name) + " "), std::string::npos) << name;
  }
  EXPECT_NE(text.find("requests " + max64 + "\n"), std::string::npos);
  EXPECT_NE(text.find("slab_used_chunks " + max64 + "\n"), std::string::npos);
  EXPECT_NE(text.find("degraded 1\n"), std::string::npos);
  EXPECT_NE(text.find("shards 256\n"), std::string::npos);

  // Every line parses as "<name> <uint>\n" -- nothing truncated mid-line --
  // and the emitted rows are exactly the schema table, in table order
  // (stats_field_names() and the renderer iterate the same array, so this
  // is the compatibility contract, not a magic line count).
  const std::vector<std::string_view> schema = server::stats_field_names();
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(space, 0u) << line;
    ASSERT_LT(count, schema.size()) << "extra line: " << line;
    EXPECT_EQ(line.substr(0, space), schema[count]) << "row " << count;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, schema.size());
}

TEST(RenderStatsTest, SchemaKeepsFrozenPrefixOrder) {
  // Compatibility guarantee (server.hpp): existing rows and their relative
  // order are frozen; new rows may only be appended. This pins the prefix
  // that existed when the guarantee was made.
  const std::vector<std::string_view> schema = server::stats_field_names();
  const std::vector<std::string_view> frozen = {
      "requests", "sets", "gets", "deletes", "touches", "admin", "malformed",
      "shed", "expired_on_arrival",
      "items", "ram_hits", "ssd_hits", "misses", "expired",
      "optimistic_hits", "optimistic_retries", "locked_fallbacks", "flushes",
      "flushed_bytes", "promotions", "dropped_evictions", "ssd_live_bytes",
      "io_errors", "degraded", "degraded_shards", "shards", "slab_pages",
      "slab_reserved_bytes", "slab_used_chunks"};
  ASSERT_GE(schema.size(), frozen.size());
  for (std::size_t i = 0; i < frozen.size(); ++i) {
    EXPECT_EQ(schema[i], frozen[i]) << "row " << i;
  }
}

TEST(RenderStatsTest, EveryFamilyFieldIsRenderedOrInternal) {
  // Store fields the `stats` text leaves out on purpose: the server's own
  // per-op counters fill the `sets` and `deletes` rows, and flushed_items /
  // checksum_failures were never exported. Any other ServerCounters or
  // ManagerStats field must show up on some row: set it alone, render, and
  // look for a nonzero value.
  const std::set<std::string_view> internal_store_fields = {
      "sets", "deletes", "flushed_items", "checksum_failures"};
  const auto renders_nonzero = [](const server::ServerCounters& counters,
                                  const store::ManagerStats& store) {
    const auto rows =
        parse_stats(server::render_stats_text(counters, store, {}, 0, 0));
    return std::ranges::any_of(rows, [](const auto& row) {
      return row.second != 0;
    });
  };
  server::ServerCounters::for_each_field([&](std::string_view name,
                                             auto field) {
    server::ServerCounters counters;
    counters.*field = 1;
    EXPECT_TRUE(renders_nonzero(counters, {})) << "ServerCounters::" << name;
  });
  store::ManagerStats::for_each_field([&](std::string_view name, auto field) {
    store::ManagerStats store;
    store.*field = 1;
    EXPECT_EQ(renders_nonzero({}, store), !internal_store_fields.contains(name))
        << "ManagerStats::" << name;
  });
}

TEST(RenderLatencyTest, EmitsEveryFieldInSchemaOrder) {
  metrics::LatencyRecorder recorder(2);
  recorder.record_op(metrics::Op::kGet, 1000);
  recorder.record_op(metrics::Op::kSet, 2000);
  recorder.record_span(metrics::Span::kStorePhase, 500);

  const std::string text = server::render_latency_text(recorder);
  const std::vector<std::string> schema = server::latency_field_names();

  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    const auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(count, schema.size()) << "extra line: " << line;
    EXPECT_EQ(line.substr(0, space), schema[count]) << "row " << count;
    const std::string value = line.substr(space + 1);
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos) << line;
    ++count;
  }
  EXPECT_EQ(count, schema.size());
  EXPECT_NE(text.find("latency_recording 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_get_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_set_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("span_store_phase_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_delete_count 0\n"), std::string::npos);
}

TEST(RenderStatsTest, ZeroCountersRenderAllLines) {
  const std::string text = server::render_stats_text(
      server::ServerCounters{}, store::ManagerStats{}, store::SlabStats{}, 0, 1);
  EXPECT_NE(text.find("requests 0\n"), std::string::npos);
  EXPECT_NE(text.find("degraded 0\n"), std::string::npos);
  EXPECT_NE(text.find("shards 1\n"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ServerCountersTest, OpsSumBalancesAcrossAllClasses) {
  server::ServerCounters c;
  c.sets = 3;
  c.gets = 5;
  c.deletes = 2;
  c.touches = 7;
  c.admin = 1;
  c.malformed = 4;
  c.shed = 6;
  c.expired_on_arrival = 8;
  EXPECT_EQ(c.ops_sum(), 36u);
}

// ---------------------------------------------------------------------------
// End-to-end: the touch opcode lands in its own counter (it used to be
// dropped entirely, unbalancing requests vs per-op sums) and every op class
// keeps requests == ops_sum().

class ServerStatsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::init_precise_timing();
    sim::set_time_scale(0.02);
  }
  void TearDown() override { sim::set_time_scale(1.0); }
};

TEST_F(ServerStatsE2eTest, TouchIsCountedAndCountersBalance) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  const std::string value = "v";
  ASSERT_EQ(client->set("k", {value.data(), value.size()}, 0, 3600),
            StatusCode::kOk);
  ASSERT_EQ(client->touch("k", 60), StatusCode::kOk);
  ASSERT_EQ(client->touch("gone", 60), StatusCode::kNotFound);
  std::vector<char> out;
  ASSERT_EQ(client->get("k", out), StatusCode::kOk);
  ASSERT_EQ(client->del("k"), StatusCode::kOk);
  ASSERT_EQ(client->flush_all(), StatusCode::kOk);

  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.touches, 2u);  // hit and miss both count as a touch
  EXPECT_EQ(counters.sets, 1u);
  EXPECT_EQ(counters.gets, 1u);
  EXPECT_EQ(counters.deletes, 1u);
  EXPECT_EQ(counters.admin, 1u);
  EXPECT_EQ(counters.malformed, 0u);
  EXPECT_EQ(counters.requests, 6u);
  EXPECT_EQ(counters.requests, counters.ops_sum());

  // The stats text the wire serves reflects the same counters.
  const auto stats = client->stats_text(0, client::StatsKind::kCounters);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("touches 2"), std::string::npos) << stats.value();

  // reset_metrics zeroes every slot.
  bed.reset_metrics();
  const auto zeroed = bed.server(0).counters();
  EXPECT_EQ(zeroed.requests, 0u);
  EXPECT_EQ(zeroed.ops_sum(), 0u);
}

TEST_F(ServerStatsE2eTest, AsyncWorkersBalanceAcrossMetricSlots) {
  // Async design: the per-op counters live in per-worker slots; the merged
  // view must still balance after traffic fanned out over the workers.
  TestBedConfig cfg;
  cfg.design = Design::kHRdmaOptNonbI;
  cfg.total_server_memory = 8 << 20;
  cfg.server.processing_threads = 2;
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 512)), StatusCode::kOk);
  }
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
  }
  ASSERT_EQ(client->touch(make_key(0), 60), StatusCode::kOk);

  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.sets, 64u);
  EXPECT_EQ(counters.gets, 64u);
  EXPECT_EQ(counters.touches, 1u);
  EXPECT_EQ(counters.requests, 129u);
  EXPECT_EQ(counters.requests, counters.ops_sum());
}

// ---------------------------------------------------------------------------
// `stats latency` / `stats trace`: the wire observability surface.

TEST_F(ServerStatsE2eTest, StatsLatencyRoundTripsAndBalancesAgainstCounters) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 256)), StatusCode::kOk);
  }
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
  }
  ASSERT_EQ(client->del(make_key(0)), StatusCode::kOk);
  ASSERT_EQ(client->touch(make_key(1), 60), StatusCode::kOk);

  const auto text = client->stats_text(0, client::StatsKind::kLatency);
  ASSERT_TRUE(text.ok()) << to_string(text.status());
  const auto stats = parse_stats(text.value());

  // Every schema field arrives, in schema order, integer-valued.
  const std::vector<std::string> schema = server::latency_field_names();
  {
    std::istringstream lines(text.value());
    std::string line;
    std::size_t row = 0;
    while (std::getline(lines, line)) {
      ASSERT_LT(row, schema.size()) << "extra line: " << line;
      EXPECT_EQ(line.substr(0, line.find(' ')), schema[row]) << "row " << row;
      ++row;
    }
    EXPECT_EQ(row, schema.size());
  }

  EXPECT_EQ(stats.at("latency_recording"), 1u);
  EXPECT_EQ(stats.at("latency_set_count"), 16u);
  EXPECT_EQ(stats.at("latency_get_count"), 16u);
  EXPECT_EQ(stats.at("latency_delete_count"), 1u);
  EXPECT_EQ(stats.at("latency_touch_count"), 1u);

  // Percentiles are monotone and bounded by sane values for a served GET.
  const std::uint64_t p50 = stats.at("latency_get_p50_ns");
  const std::uint64_t p95 = stats.at("latency_get_p95_ns");
  const std::uint64_t p99 = stats.at("latency_get_p99_ns");
  const std::uint64_t p999 = stats.at("latency_get_p999_ns");
  EXPECT_GT(p50, 0u);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(stats.at("latency_get_mean_ns"), 0u);

  // The documented invariant (docs/METRICS.md): recorded op latencies cover
  // every executed request -- requests minus the ones dropped before
  // execution (shed, expired on arrival). The `stats latency` request itself
  // was still in flight when its own histogram snapshot was taken, so allow
  // exactly that one-request skew on the admin row.
  const auto counters = bed.server(0).counters();
  const std::uint64_t recorded =
      stats.at("latency_set_count") + stats.at("latency_get_count") +
      stats.at("latency_delete_count") + stats.at("latency_touch_count") +
      stats.at("latency_admin_count") + stats.at("latency_other_count");
  const std::uint64_t executed =
      counters.requests - counters.shed - counters.expired_on_arrival;
  EXPECT_GE(recorded + 1, executed);
  EXPECT_LE(recorded, executed);

  // Store-phase and response spans saw every executed request's dispatch;
  // the optimistic/locked read spans partition the GETs.
  EXPECT_GT(stats.at("span_store_phase_count"), 0u);
  EXPECT_GT(stats.at("span_response_count"), 0u);
  EXPECT_EQ(stats.at("span_optimistic_read_count") +
                stats.at("span_locked_read_count"),
            16u);
  EXPECT_GT(stats.at("span_fabric_transfer_count"), 0u);
}

TEST_F(ServerStatsE2eTest, LegacyStatsBytesIdenticalWithRecordingOnAndOff) {
  // The frozen `stats` format must not change when latency recording is
  // enabled (the default) vs disabled: same ops -> byte-identical text.
  auto run = [](bool record_latency) {
    TestBedConfig cfg;
    cfg.design = Design::kRdmaMem;
    cfg.total_server_memory = 8 << 20;
    cfg.server.record_latency = record_latency;
    TestBed bed(cfg);
    auto client = bed.make_client("c");
    const std::string value = "v";
    EXPECT_EQ(client->set("k", {value.data(), value.size()}, 0, 3600),
              StatusCode::kOk);
    std::vector<char> out;
    EXPECT_EQ(client->get("k", out), StatusCode::kOk);
    EXPECT_EQ(client->touch("k", 60), StatusCode::kOk);
    EXPECT_EQ(client->del("k"), StatusCode::kOk);
    auto text = client->stats_text(0, client::StatsKind::kCounters);
    EXPECT_TRUE(text.ok());
    return text.ok() ? text.value() : std::string{};
  };
  const std::string with_recording = run(true);
  const std::string without_recording = run(false);
  ASSERT_FALSE(with_recording.empty());
  EXPECT_EQ(with_recording, without_recording);
}

TEST_F(ServerStatsE2eTest, LatencyQueryReportsRecordingOffWhenDisabled) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  cfg.server.record_latency = false;
  TestBed bed(cfg);
  auto client = bed.make_client("c");
  const auto text = client->stats_text(0, client::StatsKind::kLatency);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "latency_recording 0\n");
}

TEST_F(ServerStatsE2eTest, TraceSubcommandReturnsSampledTimelines) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  cfg.server.trace_sample_shift = 1;  // trace every 2nd request
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 128)), StatusCode::kOk);
  }
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
  }

  const auto text = client->stats_text(0, client::StatsKind::kTrace);
  ASSERT_TRUE(text.ok());
  const std::string& json = text.value();
  EXPECT_NE(json.find("\"sample_shift\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"traces\":["), std::string::npos) << json;
  // 16 requests at shift 1 -> ~8 sampled; at least one is a set or get with
  // a store-phase span in its timeline.
  EXPECT_NE(json.find("\"seq\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"store_phase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":\"response\""), std::string::npos) << json;
}

TEST_F(ServerStatsE2eTest, TraceSubcommandReportsEmptyWhenDisabled) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);  // trace_sample_shift defaults to 0 (off)
  auto client = bed.make_client("c");
  const auto text = client->stats_text(0, client::StatsKind::kTrace);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "{\"sample_shift\":0,\"traces\":[]}\n");
}

TEST_F(ServerStatsE2eTest, UnknownStatsSubcommandIsRejectedButCounted) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  // StatsKind cannot name an unknown subcommand, so a raw endpoint sends
  // the frame the way any other peer could.
  auto raw = bed.fabric().create_endpoint("raw");
  raw->send(bed.server(0).endpoint_id(), server::kOpStats, 1,
            server::encode_request({.key = "nonsense"}));
  const auto resp = raw->recv();
  ASSERT_TRUE(resp.ok());
  const auto decoded = server::decode_response(resp.value().payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, StatusCode::kInvalidArgument);
  // Still an admin op: requests == ops_sum() must keep holding.
  const auto counters = bed.server(0).counters();
  EXPECT_EQ(counters.admin, 1u);
  EXPECT_EQ(counters.requests, counters.ops_sum());
}

TEST_F(ServerStatsE2eTest, ClientRecordsIssueToCompleteLatency) {
  TestBedConfig cfg;
  cfg.design = Design::kRdmaMem;
  cfg.total_server_memory = 8 << 20;
  TestBed bed(cfg);
  auto client = bed.make_client("c");

  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(client->set(make_key(i), make_value(i, 128)), StatusCode::kOk);
  }
  std::vector<char> out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_EQ(client->get(make_key(i), out), StatusCode::kOk);
  }

  const LatencyHistogram sets = client->op_latency(metrics::Op::kSet);
  const LatencyHistogram gets = client->op_latency(metrics::Op::kGet);
  EXPECT_EQ(sets.count(), 8u);
  EXPECT_EQ(gets.count(), 8u);
  // Client-observed latency includes the wire both ways, so it can't be
  // below the server-observed end-to-end latency of the same op.
  EXPECT_GT(gets.min_ns(), 0u);
  EXPECT_LE(gets.percentile_ns(50), gets.percentile_ns(99.9));

  client->reset_metrics();
  EXPECT_EQ(client->op_latency(metrics::Op::kGet).count(), 0u);
}

}  // namespace
}  // namespace hykv
