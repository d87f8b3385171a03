#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/testbed.hpp"

namespace hykv::server {
namespace {

std::span<const char> bytes(std::string_view s) { return {s.data(), s.size()}; }

TEST(ProtocolTest, SetRoundTrip) {
  const auto value = make_value(1, 1000);
  const auto wire = encode_request(
      {.key = "my-key", .value = value, .flags = 42, .expiration = 3600});
  const auto decoded = decode_request(kOpSet, wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, "my-key");
  EXPECT_TRUE(std::equal(value.begin(), value.end(), decoded->value.begin(),
                         decoded->value.end()));
  EXPECT_EQ(decoded->flags, 42u);
  EXPECT_EQ(decoded->expiration, 3600);
  EXPECT_EQ(decoded->arg, 0u);
}

TEST(ProtocolTest, SetEmptyValue) {
  const auto wire = encode_request({.key = "k"});
  const auto decoded = decode_request(kOpSet, wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, "k");
  EXPECT_TRUE(decoded->value.empty());
}

TEST(ProtocolTest, KeyOnlyRequestRoundTrip) {
  const auto wire = encode_request({.key = "some-key"});
  EXPECT_EQ(wire.size(), kRequestHeaderBytes + 8);
  for (const std::uint16_t opcode : {kOpGet, kOpDelete, kOpGets}) {
    const auto decoded = decode_request(opcode, wire);
    ASSERT_TRUE(decoded.has_value()) << opcode;
    EXPECT_EQ(decoded->key, "some-key");
    EXPECT_TRUE(decoded->value.empty());
  }
}

// incr/decr carry their delta and cas its token in `arg`; touch its
// expiration in the header's expiration field.
TEST(ProtocolTest, ArgCarriesCounterDeltaAndCasToken) {
  // The decoded views point into the wire buffer, which must outlive them.
  const auto counter_wire = encode_request({.key = "ctr", .arg = 42});
  const auto counter = decode_request(kOpIncr, counter_wire);
  ASSERT_TRUE(counter.has_value());
  EXPECT_EQ(counter->key, "ctr");
  EXPECT_EQ(counter->arg, 42u);

  const auto touch_wire = encode_request({.key = "t", .expiration = -7});
  const auto touch = decode_request(kOpTouch, touch_wire);
  ASSERT_TRUE(touch.has_value());
  EXPECT_EQ(touch->key, "t");
  EXPECT_EQ(touch->expiration, -7);

  const auto value_wire = encode_counter_value(123456789ULL);
  EXPECT_EQ(decode_counter_value(value_wire).value(), 123456789ULL);
  const char junk[3] = {1, 2, 3};
  for (const std::uint16_t opcode : {kOpIncr, kOpDecr, kOpTouch, kOpCas}) {
    EXPECT_FALSE(decode_request(opcode, junk).has_value()) << opcode;
  }
  EXPECT_FALSE(decode_counter_value(junk).has_value());

  const auto cas_wire = encode_request({.key = "ck",
                                        .value = junk,
                                        .flags = 2,
                                        .expiration = 9,
                                        .arg = 777});
  const auto cas_req = decode_request(kOpCas, cas_wire);
  ASSERT_TRUE(cas_req.has_value());
  EXPECT_EQ(cas_req->key, "ck");
  EXPECT_EQ(cas_req->flags, 2u);
  EXPECT_EQ(cas_req->expiration, 9);
  EXPECT_EQ(cas_req->arg, 777u);
  EXPECT_EQ(cas_req->value.size(), 3u);
}

TEST(ProtocolTest, ResponseRoundTripWithValue) {
  const auto value = make_value(2, 512);
  const auto wire = encode_response(StatusCode::kOk, 9, value);
  const auto decoded = decode_response(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, StatusCode::kOk);
  EXPECT_EQ(decoded->flags, 9u);
  EXPECT_TRUE(std::equal(value.begin(), value.end(), decoded->value.begin(),
                         decoded->value.end()));
}

TEST(ProtocolTest, ResponseWithoutValue) {
  const auto wire = encode_response(StatusCode::kNotFound, 0);
  const auto decoded = decode_response(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, StatusCode::kNotFound);
  EXPECT_TRUE(decoded->value.empty());
}

TEST(ProtocolTest, MalformedInputsRejected) {
  EXPECT_FALSE(decode_request(kOpSet, std::span<const char>{}).has_value());
  EXPECT_FALSE(decode_request(kOpGet, std::span<const char>{}).has_value());
  const char short_buf[] = {1, 2, 3};
  EXPECT_FALSE(decode_request(kOpSet, short_buf).has_value());
  EXPECT_FALSE(decode_request(kOpGet, short_buf).has_value());
  EXPECT_FALSE(decode_response(short_buf).has_value());

  // key_len larger than the remaining payload.
  std::vector<char> lying(kRequestHeaderBytes + 4, 0);
  const std::uint32_t huge = 1000;
  std::memcpy(lying.data(), &huge, 4);
  EXPECT_FALSE(decode_request(kOpGet, lying).has_value());
  EXPECT_FALSE(decode_request(kOpSet, lying).has_value());
}

// Only the storing opcodes carry value bytes; on any other opcode they make
// the request malformed, as trailing bytes after a key always did.
TEST(ProtocolTest, ValueBytesOnKeyOnlyOpcodeRejected) {
  auto wire = encode_request({.key = "abc"});
  wire.push_back('x');
  for (const std::uint16_t opcode :
       {kOpGet, kOpDelete, kOpIncr, kOpDecr, kOpTouch, kOpFlushAll, kOpStats,
        kOpGets}) {
    EXPECT_FALSE(decode_request(opcode, wire).has_value()) << opcode;
  }
  for (const std::uint16_t opcode :
       {kOpSet, kOpAdd, kOpReplace, kOpAppend, kOpPrepend, kOpCas}) {
    const auto decoded = decode_request(opcode, wire);
    ASSERT_TRUE(decoded.has_value()) << opcode;
    EXPECT_EQ(decoded->key, "abc");
    EXPECT_EQ(decoded->value.size(), 1u);
  }
}

TEST(ProtocolTest, NonRequestOpcodesNeverDecode) {
  const auto wire = encode_request({.key = "k"});
  for (const std::uint16_t opcode :
       {std::uint16_t{0}, std::uint16_t{kOpResponse}, std::uint16_t{kOpBatch},
        std::uint16_t{kOpBatchResponse}, std::uint16_t{99}}) {
    EXPECT_FALSE(decode_request(opcode, wire).has_value()) << opcode;
  }
}

// ---------------------------------------------------------------------------
// Every request opcode against a real server: where a well-formed request is
// counted, and how a malformed one is answered.

using Field = std::uint64_t ServerCounters::*;
using OpCounts = std::array<std::uint64_t, metrics::kOpCount>;

struct OpcodeRow {
  std::uint16_t opcode;
  OpRequest request;  ///< Well-formed.
  Field counter;      ///< The ServerCounters field it lands in.
  metrics::Op op;     ///< Its op class.
};

class RequestTableTest : public ::testing::Test {
 protected:
  RequestTableTest()
      : bed_(config()), raw_(bed_.fabric().create_endpoint("raw")) {
    EXPECT_EQ(bed_.server(0).manager().store("seed", bytes("seed-value"), 0, 0),
              StatusCode::kOk);
    EXPECT_EQ(bed_.server(0).manager().store("ctr", bytes("5"), 0, 0),
              StatusCode::kOk);
  }
  ~RequestTableTest() override { raw_->close(); }

  static core::TestBedConfig config() {
    core::TestBedConfig cfg;
    cfg.design = core::Design::kRdmaMem;
    cfg.total_server_memory = 8 << 20;
    return cfg;
  }

  /// Sends one plain frame and returns the decoded reply.
  Response send(std::uint16_t opcode, std::span<const char> payload) {
    raw_->send(bed_.server(0).endpoint_id(), opcode, ++wr_id_, payload);
    auto reply = raw_->recv();
    EXPECT_TRUE(reply.ok());
    reply_ = std::move(reply).value();
    EXPECT_EQ(reply_.wr_id, wr_id_);
    const auto decoded = decode_response(reply_.payload);
    EXPECT_TRUE(decoded.has_value());
    return decoded.value_or(Response{});
  }

  /// Samples per op-class histogram, once every request sent has been
  /// recorded: the server records an op right after sending its reply.
  OpCounts recorded_ops() {
    OpCounts counts{};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    do {
      for (std::size_t i = 0; i < metrics::kOpCount; ++i) {
        counts[i] = bed_.server(0).latency()->op_histogram(
            static_cast<metrics::Op>(i)).count();
      }
    } while (std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}) <
                 wr_id_ &&
             std::chrono::steady_clock::now() < deadline);
    return counts;
  }

  core::TestBed bed_;
  std::shared_ptr<net::Endpoint> raw_;
  net::Message reply_;
  std::uint64_t wr_id_ = 0;
};

const std::string kValue = "vv";

// Where each request opcode is counted (a fixed mapping), one row each.
const OpcodeRow kRows[] = {
    {kOpSet, {.key = "k-set", .value = bytes(kValue)}, &ServerCounters::sets,
     metrics::Op::kSet},
    {kOpGet, {.key = "seed"}, &ServerCounters::gets, metrics::Op::kGet},
    {kOpDelete, {.key = "k-set"}, &ServerCounters::deletes,
     metrics::Op::kDelete},
    {kOpAdd, {.key = "k-add", .value = bytes(kValue)}, &ServerCounters::sets,
     metrics::Op::kSet},
    {kOpReplace, {.key = "k-add", .value = bytes(kValue)},
     &ServerCounters::sets, metrics::Op::kSet},
    {kOpAppend, {.key = "k-add", .value = bytes(kValue)},
     &ServerCounters::sets, metrics::Op::kSet},
    {kOpPrepend, {.key = "k-add", .value = bytes(kValue)},
     &ServerCounters::sets, metrics::Op::kSet},
    {kOpIncr, {.key = "ctr", .arg = 3}, &ServerCounters::sets,
     metrics::Op::kSet},
    {kOpDecr, {.key = "ctr", .arg = 1}, &ServerCounters::sets,
     metrics::Op::kSet},
    {kOpTouch, {.key = "seed", .expiration = 60}, &ServerCounters::touches,
     metrics::Op::kTouch},
    {kOpStats, {}, &ServerCounters::admin, metrics::Op::kAdmin},
    {kOpGets, {.key = "seed"}, &ServerCounters::gets, metrics::Op::kGet},
    {kOpCas, {.key = "seed", .value = bytes(kValue), .arg = 1},
     &ServerCounters::sets, metrics::Op::kSet},
    {kOpFlushAll, {}, &ServerCounters::admin, metrics::Op::kAdmin},
};

TEST_F(RequestTableTest, EveryRequestOpcodeLandsInItsCounterAndOpClass) {
  ASSERT_EQ(std::size(kRows), 14u);
  OpCounts expected_ops{};
  for (const OpcodeRow& row : kRows) {
    SCOPED_TRACE(row.opcode);
    EXPECT_EQ(op_class(row.opcode), row.op);
    const ServerCounters before = bed_.server(0).counters();
    (void)send(row.opcode, encode_request(row.request));
    const ServerCounters after = bed_.server(0).counters();
    EXPECT_EQ(after.requests, before.requests + 1);
    EXPECT_EQ(after.*row.counter, before.*row.counter + 1);
    EXPECT_EQ(after.ops_sum(), before.ops_sum() + 1);
    EXPECT_EQ(after.requests, after.ops_sum());
    ++expected_ops[static_cast<std::size_t>(row.op)];
    EXPECT_EQ(recorded_ops(), expected_ops);
  }
  EXPECT_EQ(bed_.server(0).counters().malformed, 0u);
}

// A cas token of 0 is no wildcard: on an absent key the server answers
// NOT_FOUND and stores nothing; on a live key the token does not match.
TEST_F(RequestTableTest, CasWithTokenZeroNeverMatches) {
  const std::size_t items = bed_.server(0).manager().item_count();
  EXPECT_EQ(send(kOpCas, encode_request({.key = "absent",
                                         .value = bytes(kValue),
                                         .arg = 0}))
                .status,
            StatusCode::kNotFound);
  EXPECT_EQ(bed_.server(0).manager().item_count(), items);
  EXPECT_FALSE(bed_.server(0).manager().exists("absent"));

  EXPECT_EQ(send(kOpCas, encode_request({.key = "seed",
                                         .value = bytes(kValue),
                                         .arg = 0}))
                .status,
            StatusCode::kNotStored);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(bed_.server(0).manager().get("seed", out, flags), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "seed-value");
}

TEST_F(RequestTableTest, MalformedRequestOfEveryOpcodeIsRejectedAndCounted) {
  const std::size_t items = bed_.server(0).manager().item_count();
  std::vector<std::vector<char>> malformed_bodies(1);  // the empty payload
  const char short_buf[] = {1, 2, 3};
  malformed_bodies.emplace_back(std::begin(short_buf), std::end(short_buf));
  std::vector<char> lying = encode_request({.key = "seed"});
  const std::uint32_t huge = 1000;
  std::memcpy(lying.data(), &huge, 4);
  malformed_bodies.push_back(lying);

  OpCounts expected_ops{};
  for (const OpcodeRow& row : kRows) {
    SCOPED_TRACE(row.opcode);
    std::vector<std::vector<char>> bodies = malformed_bodies;
    if (!carries_value(row.opcode)) {
      // A key-only opcode given value bytes.
      std::vector<char> with_value = encode_request(row.request);
      with_value.insert(with_value.end(), kValue.begin(), kValue.end());
      bodies.push_back(with_value);
    }
    for (const std::vector<char>& body : bodies) {
      const ServerCounters before = bed_.server(0).counters();
      EXPECT_EQ(send(row.opcode, body).status, StatusCode::kInvalidArgument);
      const ServerCounters after = bed_.server(0).counters();
      EXPECT_EQ(after.malformed, before.malformed + 1);
      EXPECT_EQ(after.ops_sum(), before.ops_sum() + 1);
      EXPECT_EQ(after.requests, after.ops_sum());
      ++expected_ops[static_cast<std::size_t>(metrics::Op::kOther)];
      EXPECT_EQ(recorded_ops(), expected_ops);
    }
  }
  // Nothing reached the store: no item added, changed or dropped.
  EXPECT_EQ(bed_.server(0).manager().item_count(), items);
  std::vector<char> out;
  std::uint32_t flags = 0;
  ASSERT_EQ(bed_.server(0).manager().get("seed", out, flags), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "seed-value");
  ASSERT_EQ(bed_.server(0).manager().get("ctr", out, flags), StatusCode::kOk);
  EXPECT_EQ(std::string(out.begin(), out.end()), "5");
}

}  // namespace
}  // namespace hykv::server
