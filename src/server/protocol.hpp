// Wire protocol between the hykv client library and the Memcached server.
//
// Binary little-endian framing (this is an in-process simulation; both ends
// share endianness). Opcodes ride in Message::opcode, correlation in wr_id.
// As in memcached's binary protocol, every request opcode shares one fixed
// header, so a request is one record whatever its opcode:
//
//   REQ  : [u32 key_len][u32 flags][i64 expiration][u64 arg][key][value]
//   RESP : [u8 status][u32 flags][value...]
//
// A request decodes into an OpRequest. `arg` is the CAS token of kOpCas and
// the delta of kOpIncr/kOpDecr, 0 for every other opcode. Only the storing
// opcodes (set, add, replace, append, prepend, cas) may carry value bytes;
// a stats subcommand travels as the key. The opcode comments below name the
// fields each op reads. Frames (one op, or a batch) and the deadline
// envelope wrap these encodings; see the sections further down.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/status.hpp"

namespace hykv::server {

enum Opcode : std::uint16_t {
  kOpSet = 1,        ///< key, value, flags, expiration.
  kOpGet = 2,        ///< key; resp value = the item's bytes.
  kOpDelete = 3,     ///< key.
  kOpResponse = 4,   ///< Reply to a plain frame: RESP.
  kOpAdd = 5,        ///< As kOpSet; stores iff absent.
  kOpReplace = 6,    ///< As kOpSet; stores iff present.
  kOpAppend = 7,     ///< key, value: extends the value at the end.
  kOpPrepend = 8,    ///< key, value: extends the value at the front.
  kOpIncr = 9,       ///< key, arg = delta; resp value = new value, LE u64.
  kOpDecr = 10,      ///< As kOpIncr.
  kOpTouch = 11,     ///< key, expiration.
  kOpFlushAll = 12,  ///< No field read; drops every item on the server.
  kOpStats = 13,     ///< key = subcommand ("" = legacy counter text,
                     ///< "latency", "trace"); resp value = "key value\n"
                     ///< text (JSON for "trace").
  kOpGets = 14,      ///< key; resp value = [u64 cas][value bytes].
  kOpCas = 15,       ///< As kOpSet, arg = CAS token.
  kOpBatch = 16,     ///< Coalesced frame: [u32 n] + n length-prefixed sub-
                     ///< requests, each [u16 opcode][u64 wr_id][u32 len][body].
  kOpBatchResponse = 17,  ///< [u32 n] + n of [u64 wr_id][u32 len][RESP bytes].
};

/// Op class of an opcode: the histogram bucket a well-formed request of this
/// opcode lands in (`stats latency`, client issue→complete), and the one
/// opcode→ServerCounters mapping the server counts by, so `stats latency`
/// counts balance against `stats` counts. kOther marks an opcode that is
/// not a request; malformed requests are recorded as kOther whatever their
/// opcode.
[[nodiscard]] constexpr metrics::Op op_class(std::uint16_t opcode) noexcept {
  switch (opcode) {
    case kOpSet:
    case kOpAdd:
    case kOpReplace:
    case kOpAppend:
    case kOpPrepend:
    case kOpIncr:
    case kOpDecr:
    case kOpCas:
      return metrics::Op::kSet;
    case kOpGet:
    case kOpGets:
      return metrics::Op::kGet;
    case kOpDelete:
      return metrics::Op::kDelete;
    case kOpTouch:
      return metrics::Op::kTouch;
    case kOpFlushAll:
    case kOpStats:
      return metrics::Op::kAdmin;
    default:
      return metrics::Op::kOther;
  }
}

/// One request of any opcode, as the wire carries it (header comment).
/// Decoded views point into the payload, which must outlive the request.
struct OpRequest {
  std::string_view key{};
  std::span<const char> value{};
  std::uint32_t flags = 0;
  std::int64_t expiration = 0;
  std::uint64_t arg = 0;  ///< kOpCas: CAS token; kOpIncr/kOpDecr: delta.
};

struct Response {
  StatusCode status = StatusCode::kServerError;
  std::uint32_t flags = 0;
  std::span<const char> value{};
};

/// Fixed bytes before a request's key: [u32 key_len][u32 flags][i64
/// expiration][u64 arg].
inline constexpr std::size_t kRequestHeaderBytes = 24;

/// Whether requests of this opcode may carry value bytes.
[[nodiscard]] constexpr bool carries_value(std::uint16_t opcode) noexcept {
  switch (opcode) {
    case kOpSet:
    case kOpAdd:
    case kOpReplace:
    case kOpAppend:
    case kOpPrepend:
    case kOpCas:
      return true;
    default:
      return false;
  }
}

namespace detail {
inline void append_u32(std::vector<char>& out, std::uint32_t v) {
  const auto offset = out.size();
  out.resize(offset + 4);
  std::memcpy(out.data() + offset, &v, 4);
}
inline void append_u64(std::vector<char>& out, std::uint64_t v) {
  const auto offset = out.size();
  out.resize(offset + 8);
  std::memcpy(out.data() + offset, &v, 8);
}
inline void append_i64(std::vector<char>& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}
inline bool read_u32(std::span<const char> in, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > in.size()) return false;
  std::memcpy(&v, in.data() + pos, 4);
  pos += 4;
  return true;
}
inline bool read_u64(std::span<const char> in, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > in.size()) return false;
  std::memcpy(&v, in.data() + pos, 8);
  pos += 8;
  return true;
}
inline bool read_i64(std::span<const char> in, std::size_t& pos, std::int64_t& v) {
  if (pos + 8 > in.size()) return false;
  std::memcpy(&v, in.data() + pos, 8);
  pos += 8;
  return true;
}
}  // namespace detail

inline std::vector<char> encode_request(const OpRequest& req) {
  std::vector<char> out;
  out.reserve(kRequestHeaderBytes + req.key.size() + req.value.size());
  detail::append_u32(out, static_cast<std::uint32_t>(req.key.size()));
  detail::append_u32(out, req.flags);
  detail::append_i64(out, req.expiration);
  detail::append_u64(out, req.arg);
  out.insert(out.end(), req.key.begin(), req.key.end());
  out.insert(out.end(), req.value.begin(), req.value.end());
  return out;
}

/// nullopt -- a malformed request -- for an opcode that is not a request
/// (op_class kOther), a payload shorter than its header or its key_len, and
/// value bytes on an opcode that carries none.
inline std::optional<OpRequest> decode_request(std::uint16_t opcode,
                                               std::span<const char> payload) {
  if (op_class(opcode) == metrics::Op::kOther) return std::nullopt;
  std::size_t pos = 0;
  std::uint32_t key_len = 0;
  OpRequest req;
  if (!detail::read_u32(payload, pos, key_len) ||
      !detail::read_u32(payload, pos, req.flags) ||
      !detail::read_i64(payload, pos, req.expiration) ||
      !detail::read_u64(payload, pos, req.arg)) {
    return std::nullopt;
  }
  if (key_len > payload.size() - pos) return std::nullopt;
  req.key = std::string_view(payload.data() + pos, key_len);
  req.value = payload.subspan(pos + key_len);
  if (!req.value.empty() && !carries_value(opcode)) return std::nullopt;
  return req;
}

inline std::vector<char> encode_response(StatusCode status, std::uint32_t flags,
                                         std::span<const char> value = {}) {
  std::vector<char> out;
  out.reserve(5 + value.size());
  out.push_back(static_cast<char>(status));
  detail::append_u32(out, flags);
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

inline std::optional<Response> decode_response(std::span<const char> payload) {
  if (payload.size() < 5) return std::nullopt;
  Response resp;
  resp.status = static_cast<StatusCode>(payload[0]);
  std::size_t pos = 1;
  if (!detail::read_u32(payload, pos, resp.flags)) return std::nullopt;
  resp.value = payload.subspan(pos);
  return resp;
}

// ---- Optional request-deadline header (overload control, DESIGN.md §8) ----
//
// A client propagating its op deadline prepends
//   [u32 kDeadlineMagic][i64 absolute_deadline_ns]
// to any request payload; the server strips it at receipt and sheds
// expired-on-arrival work with kBusy before paying the slab/SSD phase. The
// magic cannot collide with a legitimate first field: every request encoding
// starts with a key_len that the decoders bound by the frame size, and no
// frame approaches 3.5 GB. Decoding is deliberately lenient -- a truncated or
// malformed header yields "no deadline" with the payload untouched (the inner
// decoder then rejects it as malformed); it can never crash or over-read.

inline constexpr std::uint32_t kDeadlineMagic = 0xD14D71FEu;

struct DeadlineEnvelope {
  std::int64_t deadline_ns = 0;   ///< steady-clock ns since epoch; 0 = none.
  std::span<const char> inner{};  ///< Payload with the header stripped.
};

inline std::vector<char> with_deadline(std::int64_t deadline_ns,
                                       std::span<const char> inner) {
  std::vector<char> out;
  out.reserve(12 + inner.size());
  detail::append_u32(out, kDeadlineMagic);
  detail::append_i64(out, deadline_ns);
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

inline DeadlineEnvelope split_deadline(std::span<const char> payload) {
  DeadlineEnvelope env;
  env.inner = payload;
  std::size_t pos = 0;
  std::uint32_t magic = 0;
  if (!detail::read_u32(payload, pos, magic)) return env;
  if (magic != kDeadlineMagic) return env;
  std::int64_t deadline_ns = 0;
  if (!detail::read_i64(payload, pos, deadline_ns)) return env;  // truncated
  if (deadline_ns <= 0) return env;  // nonsense deadline -> none
  env.deadline_ns = deadline_ns;
  env.inner = payload.subspan(pos);
  return env;
}

/// Counter responses carry the new value as 8 LE bytes.
inline std::vector<char> encode_counter_value(std::uint64_t value) {
  std::vector<char> out(8);
  std::memcpy(out.data(), &value, 8);
  return out;
}

inline std::optional<std::uint64_t> decode_counter_value(std::span<const char> payload) {
  if (payload.size() != 8) return std::nullopt;
  std::uint64_t v = 0;
  std::memcpy(&v, payload.data(), 8);
  return v;
}

// ---- Frames: one op, or a batch of them (DESIGN.md §12) ----
//
// A message carries one of two frame shapes, and only this header tells
// them apart. A plain frame is one op: the message's opcode, wr_id and
// payload. A batch frame is a run of ops bound for one server, which the
// client TX engine coalesces so the per-message fabric costs (doorbell,
// propagation, response post) are paid once per frame instead of once per
// op. Layout (inner payload -- an optional deadline envelope may wrap the
// whole frame):
//
//   BATCH : [u32 op_count] then op_count times
//           [u16 opcode][u64 wr_id][u32 len][len bytes of that op's encoding]
//   BRESP : [u32 op_count] then op_count times
//           [u64 wr_id][u32 len][len bytes of RESP encoding]
//
// Correlation: the outer Message::wr_id carries the *first* op's wr_id (so
// even a reply to an undecodable frame reaches a real pending entry); per-op
// completion rides on the wr_ids inside the frame. Decoding is strict where
// the handlers need it to be: zero ops, a count that cannot fit the
// remaining bytes, truncated items, or trailing garbage all yield nullopt
// (the server answers kInvalidArgument, never executes a partial frame).
//
// The openers and writers at the end of this header turn either shape into
// a span of ops and back, so the server has one request handler and the
// client one posting function and one completion loop. A plain frame costs
// no allocation or copy beyond its op's own encoding.

namespace detail {
inline void append_u16(std::vector<char>& out, std::uint16_t v) {
  const auto offset = out.size();
  out.resize(offset + 2);
  std::memcpy(out.data() + offset, &v, 2);
}
inline bool read_u16(std::span<const char> in, std::size_t& pos, std::uint16_t& v) {
  if (pos + 2 > in.size()) return false;
  std::memcpy(&v, in.data() + pos, 2);
  pos += 2;
  return true;
}
inline void append_batch_item(std::vector<char>& out, std::uint16_t opcode,
                              std::uint64_t wr_id, std::span<const char> body) {
  append_u16(out, opcode);
  append_u64(out, wr_id);
  append_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
}
inline void append_batch_response_item(std::vector<char>& out,
                                       std::uint64_t wr_id,
                                       std::span<const char> resp) {
  append_u64(out, wr_id);
  append_u32(out, static_cast<std::uint32_t>(resp.size()));
  out.insert(out.end(), resp.begin(), resp.end());
}
}  // namespace detail

/// One op of a request frame (views into the frame payload).
struct BatchItem {
  std::uint16_t opcode = 0;
  std::uint64_t wr_id = 0;
  std::span<const char> payload{};
};

/// One op's reply in a reply frame (views into the frame payload).
struct BatchResponseItem {
  std::uint64_t wr_id = 0;
  std::span<const char> payload{};
};

/// Fixed bytes per batch item before its body ([u16 opcode][u64 wr][u32 len]).
inline constexpr std::size_t kBatchItemHeaderBytes = 14;
/// Fixed bytes per batch-response item ([u64 wr][u32 len]).
inline constexpr std::size_t kBatchResponseHeaderBytes = 12;

namespace detail {
/// Decodes the layout both batch frames share: [u32 count], then per item
/// its fixed fields (`read_head`), [u32 len] and len body bytes.
/// `head_bytes` is an item's fixed size, length included.
template <typename Item, typename ReadHead>
std::optional<std::vector<Item>> decode_items(std::span<const char> payload,
                                              std::size_t head_bytes,
                                              ReadHead read_head) {
  std::size_t pos = 0;
  std::uint32_t count = 0;
  if (!read_u32(payload, pos, count)) return std::nullopt;
  if (count == 0) return std::nullopt;  // empty frames are malformed
  // Oversized-count guard: each item needs at least its fixed header, so a
  // count the remaining bytes cannot possibly hold is rejected before any
  // reserve/parse work (a hostile 0xFFFFFFFF count must not allocate).
  if (count > (payload.size() - pos) / head_bytes) return std::nullopt;
  std::vector<Item> items;
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Item item;
    std::uint32_t len = 0;
    if (!read_head(pos, item)) return std::nullopt;
    if (!read_u32(payload, pos, len)) return std::nullopt;
    if (len > payload.size() - pos) return std::nullopt;
    item.payload = payload.subspan(pos, len);
    pos += len;
    items.push_back(item);
  }
  if (pos != payload.size()) return std::nullopt;  // trailing garbage
  return items;
}
}  // namespace detail

inline std::vector<char> encode_batch(std::span<const BatchItem> items) {
  std::size_t total = 4;
  for (const BatchItem& item : items) {
    total += kBatchItemHeaderBytes + item.payload.size();
  }
  std::vector<char> out;
  out.reserve(total);
  detail::append_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const BatchItem& item : items) {
    detail::append_batch_item(out, item.opcode, item.wr_id, item.payload);
  }
  return out;
}

inline std::optional<std::vector<BatchItem>> decode_batch(
    std::span<const char> payload) {
  return detail::decode_items<BatchItem>(
      payload, kBatchItemHeaderBytes,
      [payload](std::size_t& pos, BatchItem& item) {
        return detail::read_u16(payload, pos, item.opcode) &&
               detail::read_u64(payload, pos, item.wr_id);
      });
}

inline std::vector<char> encode_batch_response(
    std::span<const BatchResponseItem> items) {
  std::size_t total = 4;
  for (const BatchResponseItem& item : items) {
    total += kBatchResponseHeaderBytes + item.payload.size();
  }
  std::vector<char> out;
  out.reserve(total);
  detail::append_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const BatchResponseItem& item : items) {
    detail::append_batch_response_item(out, item.wr_id, item.payload);
  }
  return out;
}

inline std::optional<std::vector<BatchResponseItem>> decode_batch_response(
    std::span<const char> payload) {
  return detail::decode_items<BatchResponseItem>(
      payload, kBatchResponseHeaderBytes,
      [payload](std::size_t& pos, BatchResponseItem& item) {
        return detail::read_u64(payload, pos, item.wr_id);
      });
}

/// The ops of an opened frame. A plain frame is its one op, viewing the
/// message (no allocation); a batch frame holds its decoded items.
template <typename Op>
struct FrameOps {
  Op single{};
  std::vector<Op> batch{};

  [[nodiscard]] bool batched() const noexcept { return !batch.empty(); }
  [[nodiscard]] std::span<const Op> ops() const noexcept {
    if (batched()) return batch;
    return {&single, 1};
  }
};

/// A request frame opened for execution.
struct RequestFrame : FrameOps<BatchItem> {
  std::int64_t deadline_ns = 0;  ///< Propagated deadline; 0 = none.
};

/// Opens a request message: strips the deadline envelope once and yields the
/// frame's ops. nullopt for a batch frame that does not decode.
inline std::optional<RequestFrame> open_request(std::uint16_t opcode,
                                                std::uint64_t wr_id,
                                                std::span<const char> payload) {
  const DeadlineEnvelope envelope = split_deadline(payload);
  RequestFrame frame;
  frame.deadline_ns = envelope.deadline_ns;
  if (opcode != kOpBatch) {
    frame.single = {
        .opcode = opcode, .wr_id = wr_id, .payload = envelope.inner};
    return frame;
  }
  auto ops = decode_batch(envelope.inner);
  if (!ops.has_value()) return std::nullopt;
  frame.batch = *std::move(ops);
  return frame;
}

/// Builds the reply to an opened request frame, in the frame's own shape: a
/// plain frame's op answers as kOpResponse carrying its RESP bytes, a batch
/// frame as one kOpBatchResponse item per op. Add the ops in frame order;
/// the reply goes out on the request's wr_id.
class ReplyWriter {
 public:
  explicit ReplyWriter(const RequestFrame& frame) : batched_(frame.batched()) {
    if (batched_) {
      detail::append_u32(out_, static_cast<std::uint32_t>(frame.batch.size()));
    }
  }

  void add(std::uint64_t wr_id, StatusCode status, std::uint32_t flags,
           std::span<const char> value = {}) {
    std::vector<char> resp = encode_response(status, flags, value);
    if (batched_) {
      detail::append_batch_response_item(out_, wr_id, resp);
    } else {
      out_ = std::move(resp);
    }
  }

  [[nodiscard]] std::uint16_t opcode() const noexcept {
    return batched_ ? kOpBatchResponse : kOpResponse;
  }
  [[nodiscard]] std::span<const char> payload() const noexcept { return out_; }

 private:
  bool batched_;
  std::vector<char> out_;
};

/// An encoded request frame, ready to post.
struct OutgoingFrame {
  std::uint16_t opcode = 0;
  std::uint64_t wr_id = 0;
  std::vector<char> payload{};
};

/// Builds the frame for a run of requests bound for one server. A run of one
/// is a plain frame: the op's own encoding, moved in, not copied. A longer
/// run is a batch frame on the first op's wr_id. The frame carries the
/// run's tightest propagated deadline: coalesced ops were issued
/// microseconds apart under the same op deadline, so the minimum loses
/// essentially nothing.
class RequestWriter {
 public:
  explicit RequestWriter(std::size_t ops) : batched_(ops > 1) {
    if (batched_) {
      frame_.opcode = kOpBatch;
      detail::append_u32(frame_.payload, static_cast<std::uint32_t>(ops));
    }
  }

  /// Adds the next op; `body` is its encoding without a deadline envelope.
  void add(std::uint16_t opcode, std::uint64_t wr_id, std::int64_t deadline_ns,
           std::vector<char> body) {
    if (std::exchange(first_, false)) frame_.wr_id = wr_id;
    if (deadline_ns != 0 && (deadline_ns_ == 0 || deadline_ns < deadline_ns_)) {
      deadline_ns_ = deadline_ns;
    }
    if (batched_) {
      detail::append_batch_item(frame_.payload, opcode, wr_id, body);
    } else {
      frame_.opcode = opcode;
      frame_.payload = std::move(body);
    }
  }

  [[nodiscard]] OutgoingFrame finish() && {
    if (deadline_ns_ != 0) {
      frame_.payload = with_deadline(deadline_ns_, frame_.payload);
    }
    return std::move(frame_);
  }

 private:
  bool batched_;
  bool first_ = true;
  std::int64_t deadline_ns_ = 0;
  OutgoingFrame frame_;
};

/// A reply frame opened for completion: one (wr_id, RESP bytes) per op.
using ReplyFrame = FrameOps<BatchResponseItem>;

/// Opens a reply message: a plain reply is one op on the message's wr_id, a
/// batch reply its decoded items. nullopt for any other opcode and for a
/// batch reply that does not decode.
inline std::optional<ReplyFrame> open_reply(std::uint16_t opcode,
                                            std::uint64_t wr_id,
                                            std::span<const char> payload) {
  ReplyFrame frame;
  if (opcode == kOpResponse) {
    frame.single = {.wr_id = wr_id, .payload = payload};
    return frame;
  }
  if (opcode != kOpBatchResponse) return std::nullopt;
  auto ops = decode_batch_response(payload);
  if (!ops.has_value()) return std::nullopt;
  frame.batch = *std::move(ops);
  return frame;
}

}  // namespace hykv::server
