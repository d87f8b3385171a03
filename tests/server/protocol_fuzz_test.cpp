// Robustness: the wire decoders must never crash, over-read, or accept
// structurally impossible frames, no matter what bytes arrive. Exercised
// with (a) pure random payloads and (b) truncations/mutations of every valid
// encoding -- the classic protocol-fuzz corpus.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include <cstring>

#include "server/protocol.hpp"

namespace hykv::server {
namespace {

// Sink that stops the optimiser from deleting the touch loops.
volatile long g_elision_sink = 0;

void decode_everything(std::span<const char> payload) {
  // Each decoder either returns nullopt or an object whose views stay inside
  // `payload`. Touch every byte of every returned view to let ASan/valgrind
  // catch over-reads.
  auto touch = [&](std::span<const char> view) {
    long sum = 0;
    for (const char c : view) sum += c;
    g_elision_sink = g_elision_sink + sum;
  };
  // One request decoder, under every request opcode.
  for (std::uint16_t opcode = kOpSet; opcode <= kOpCas; ++opcode) {
    if (const auto req = decode_request(opcode, payload)) {
      touch(std::span<const char>(req->key.data(), req->key.size()));
      touch(req->value);
    }
  }
  if (const auto resp = decode_response(payload)) touch(resp->value);
  (void)decode_counter_value(payload);
  // Batch frames: every sub-view must stay inside `payload`, and the nested
  // bodies are run back through the single-op decoders like the server does.
  if (const auto batch = decode_batch(payload)) {
    for (const auto& item : *batch) touch(item.payload);
  }
  if (const auto bresp = decode_batch_response(payload)) {
    for (const auto& item : *bresp) touch(item.payload);
  }
  // The deadline splitter is lenient by design (no header -> no deadline,
  // inner == payload) but its inner view must still stay inside `payload`.
  const auto env = split_deadline(payload);
  touch(env.inner);
}

// A representative well-formed kOpBatch frame for the corpus loops.
std::vector<char> sample_batch_frame(std::span<const char> value) {
  const auto set_body =
      encode_request({.key = "bk", .value = value, .flags = 1});
  const auto get_body = encode_request({.key = "bk"});
  const BatchItem items[] = {
      {.opcode = kOpSet, .wr_id = 11, .payload = set_body},
      {.opcode = kOpGet, .wr_id = 12, .payload = get_body},
  };
  return encode_batch(items);
}

// A representative well-formed kOpBatchResponse frame.
std::vector<char> sample_batch_response_frame(std::span<const char> value) {
  const auto ok_body = encode_response(StatusCode::kOk, 0);
  const auto val_body = encode_response(StatusCode::kOk, 3, value);
  const BatchResponseItem items[] = {
      {.wr_id = 11, .payload = ok_body},
      {.wr_id = 12, .payload = val_body},
  };
  return encode_batch_response(items);
}

TEST(ProtocolFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF022);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.next_below(200);
    std::vector<char> payload(len);
    for (auto& b : payload) b = static_cast<char>(rng.next() & 0xFF);
    decode_everything(payload);
  }
}

TEST(ProtocolFuzzTest, TruncationsOfValidFramesAreRejectedOrSafe) {
  const auto value = make_value(1, 100);
  // One request seed per opcode, each with the fields that opcode reads.
  const std::vector<std::vector<char>> corpus = {
      encode_request({.key = "some-key", .value = value, .flags = 3,
                      .expiration = 60}),                        // set
      encode_request({.key = "another-key"}),                    // get
      encode_request({.key = "delete-key"}),                     // delete
      encode_request({.key = "add-key", .value = value, .flags = 2}),
      encode_request({.key = "replace-key", .value = value, .expiration = 5}),
      encode_request({.key = "append-key", .value = value}),
      encode_request({.key = "prepend-key", .value = value}),
      encode_request({.key = "counter-key", .arg = 42}),          // incr
      encode_request({.key = "counter-key", .arg = 7}),           // decr
      encode_request({.key = "touch-key", .expiration = 1234}),  // touch
      encode_request({}),                                        // flush_all
      encode_request({.key = "latency"}),                        // stats
      encode_request({.key = "gets-key"}),                       // gets
      encode_request({.key = "cas-key", .value = value, .flags = 1,
                      .expiration = 2, .arg = 99}),              // cas
      encode_response(StatusCode::kOk, 7, value),
      encode_counter_value(123456789),
      // Overload-control frames: deadline-wrapped requests and the kBusy
      // status byte on the response path.
      with_deadline(123456789, encode_request({.key = "deadline-key"})),
      with_deadline(1, encode_request({.key = "dl", .value = value})),
      encode_response(StatusCode::kBusy, 0),
      // Doorbell-batching frames: a coalesced request frame (bare and
      // deadline-wrapped) and a batched response.
      sample_batch_frame(value),
      with_deadline(777, sample_batch_frame(value)),
      sample_batch_response_frame(value),
  };
  for (const auto& frame : corpus) {
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
      decode_everything(std::span<const char>(frame.data(), cut));
    }
  }
}

TEST(ProtocolFuzzTest, SingleByteMutationsAreSafe) {
  Rng rng(0xB17F117);
  const auto value = make_value(2, 64);
  auto frame = encode_request({.key = "mutate-me", .value = value, .flags = 1});
  for (int round = 0; round < 3000; ++round) {
    auto mutated = frame;
    mutated[rng.next_below(mutated.size())] = static_cast<char>(rng.next() & 0xFF);
    decode_everything(mutated);
  }
}

TEST(ProtocolFuzzTest, DeadlineHeaderLenientDecode) {
  const auto inner = encode_request({.key = "k"});

  // Well-formed: the deadline comes back and inner is exactly the payload.
  const auto wrapped = with_deadline(42, inner);
  const auto env = split_deadline(wrapped);
  EXPECT_EQ(env.deadline_ns, 42);
  ASSERT_EQ(env.inner.size(), inner.size());
  EXPECT_EQ(std::memcmp(env.inner.data(), inner.data(), inner.size()), 0);

  // No header: no deadline, payload untouched.
  const auto bare = split_deadline(inner);
  EXPECT_EQ(bare.deadline_ns, 0);
  EXPECT_EQ(bare.inner.data(), inner.data());
  EXPECT_EQ(bare.inner.size(), inner.size());

  // Truncated after the magic: "no deadline", payload untouched -- the inner
  // decoder then rejects the frame as malformed; never a crash.
  for (std::size_t cut = 0; cut < 12; ++cut) {
    const auto trunc = split_deadline(std::span<const char>(wrapped.data(), cut));
    EXPECT_EQ(trunc.deadline_ns, 0) << cut;
    EXPECT_EQ(trunc.inner.size(), cut) << cut;
  }

  // Nonsense (non-positive) deadline values decode as "no deadline".
  for (const std::int64_t bogus : {std::int64_t{0}, std::int64_t{-1}}) {
    const auto evil = with_deadline(bogus, inner);
    EXPECT_EQ(split_deadline(evil).deadline_ns, 0) << bogus;
  }
}

TEST(ProtocolFuzzTest, BusyStatusByteRoundTrips) {
  const auto frame = encode_response(StatusCode::kBusy, 0);
  const auto resp = decode_response(frame);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, StatusCode::kBusy);
  EXPECT_TRUE(resp->value.empty());
}

TEST(ProtocolFuzzTest, BatchFrameRoundTrips) {
  const auto value = make_value(3, 80);
  const auto frame = sample_batch_frame(value);
  const auto items = decode_batch(frame);
  ASSERT_TRUE(items.has_value());
  ASSERT_EQ(items->size(), 2u);
  EXPECT_EQ((*items)[0].opcode, kOpSet);
  EXPECT_EQ((*items)[0].wr_id, 11u);
  EXPECT_EQ((*items)[1].opcode, kOpGet);
  EXPECT_EQ((*items)[1].wr_id, 12u);
  // The nested bodies decode with the single-op decoder, unchanged.
  const auto set = decode_request(kOpSet, (*items)[0].payload);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->key, "bk");
  const auto get = decode_request(kOpGet, (*items)[1].payload);
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->key, "bk");

  const auto resp_frame = sample_batch_response_frame(value);
  const auto resps = decode_batch_response(resp_frame);
  ASSERT_TRUE(resps.has_value());
  ASSERT_EQ(resps->size(), 2u);
  EXPECT_EQ((*resps)[0].wr_id, 11u);
  EXPECT_EQ((*resps)[1].wr_id, 12u);
  const auto second = decode_response((*resps)[1].payload);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, StatusCode::kOk);
  EXPECT_EQ(second->flags, 3u);
  EXPECT_EQ(second->value.size(), value.size());
}

TEST(ProtocolFuzzTest, ZeroOpBatchFramesRejected) {
  // A frame claiming zero sub-ops is structurally impossible (the TX engine
  // never wraps an empty run) -- malformed, not an empty success.
  const std::vector<char> zero(4, 0);
  EXPECT_FALSE(decode_batch(zero).has_value());
  EXPECT_FALSE(decode_batch_response(zero).has_value());
}

TEST(ProtocolFuzzTest, OversizedBatchCountRejectedWithoutAllocating) {
  // A hostile count larger than the remaining bytes could possibly hold must
  // be rejected before any reserve() -- 0xFFFFFFFF items must not allocate.
  std::vector<char> evil(12, 0);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(evil.data(), &huge, 4);
  EXPECT_FALSE(decode_batch(evil).has_value());
  EXPECT_FALSE(decode_batch_response(evil).has_value());
}

TEST(ProtocolFuzzTest, TruncatedAndPaddedBatchFramesRejected) {
  const auto value = make_value(4, 48);
  const auto frame = sample_batch_frame(value);
  // Every proper prefix is malformed (the count promises more than arrives).
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(
        decode_batch(std::span<const char>(frame.data(), cut)).has_value())
        << cut;
  }
  // Trailing garbage is malformed too: item lengths must consume the frame.
  auto padded = frame;
  padded.push_back('x');
  EXPECT_FALSE(decode_batch(padded).has_value());

  const auto resp = sample_batch_response_frame(value);
  for (std::size_t cut = 0; cut < resp.size(); ++cut) {
    EXPECT_FALSE(
        decode_batch_response(std::span<const char>(resp.data(), cut))
            .has_value())
        << cut;
  }
}

TEST(ProtocolFuzzTest, BatchFrameSingleByteMutationsAreSafe) {
  Rng rng(0xBA7C4);
  const auto value = make_value(5, 64);
  const auto frame = sample_batch_frame(value);
  for (int round = 0; round < 3000; ++round) {
    auto mutated = frame;
    mutated[rng.next_below(mutated.size())] =
        static_cast<char>(rng.next() & 0xFF);
    decode_everything(mutated);
  }
}

TEST(ProtocolFuzzTest, LengthFieldOverflowRejected) {
  // A key_len of ~4GB with a short payload must not wrap any arithmetic.
  std::vector<char> evil(kRequestHeaderBytes + 16, 0);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(evil.data(), &huge, 4);
  for (std::uint16_t opcode = kOpSet; opcode <= kOpCas; ++opcode) {
    EXPECT_FALSE(decode_request(opcode, evil).has_value()) << opcode;
  }
}

}  // namespace
}  // namespace hykv::server
