#include "server/protocol.h"

#include <cstring>

#include "io/bytes.h"

namespace opthash::server {
namespace {

// Little-endian appenders over a raw byte vector. The protocol reuses the
// io/ byte order helpers but not ByteWriter: a session encodes responses
// into one long-lived vector whose capacity survives across frames, which
// ByteWriter's take-the-buffer idiom would defeat.
void AppendU8(std::vector<uint8_t>& out, uint8_t value) {
  out.push_back(value);
}

void AppendU32(std::vector<uint8_t>& out, uint32_t value) {
  if (!io::HostIsLittleEndian()) value = io::ByteSwap32(value);
  const size_t at = out.size();
  out.resize(at + sizeof(value));
  std::memcpy(out.data() + at, &value, sizeof(value));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t value) {
  if (!io::HostIsLittleEndian()) value = io::ByteSwap64(value);
  const size_t at = out.size();
  out.resize(at + sizeof(value));
  std::memcpy(out.data() + at, &value, sizeof(value));
}

void AppendDouble(std::vector<uint8_t>& out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

// Appends an array of 8-byte scalars (keys, counts, estimates) in one
// copy; only a big-endian host then swaps each element in place.
template <typename T>
void AppendArray(std::vector<uint8_t>& out, Span<const T> values) {
  static_assert(sizeof(T) == sizeof(uint64_t), "8-byte wire elements");
  const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
  const size_t at = out.size();
  out.insert(out.end(), bytes, bytes + values.size() * sizeof(T));
  if (!io::HostIsLittleEndian()) {
    for (size_t offset = at; offset < out.size(); offset += sizeof(T)) {
      uint64_t value = 0;
      std::memcpy(&value, &out[offset], sizeof(value));
      value = io::ByteSwap64(value);
      std::memcpy(&out[offset], &value, sizeof(value));
    }
  }
}

// Starts a frame: placeholder length prefix + message type. SealFrame
// patches the prefix once the body is in place.
void BeginFrame(std::vector<uint8_t>& frame, MessageType type) {
  frame.clear();
  AppendU32(frame, 0);
  AppendU8(frame, static_cast<uint8_t>(type));
}

void SealFrame(std::vector<uint8_t>& frame) {
  uint32_t length = static_cast<uint32_t>(frame.size() - kFrameHeaderSize);
  OPTHASH_CHECK_LE(length, kMaxFramePayload);
  if (!io::HostIsLittleEndian()) length = io::ByteSwap32(length);
  std::memcpy(frame.data(), &length, sizeof(length));
}

Status ShortPayload(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " payload");
}

bool IsKeyRequest(MessageType type) {
  return type == MessageType::kQuery || type == MessageType::kIngest;
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kQuery:
      return "query";
    case MessageType::kIngest:
      return "ingest";
    case MessageType::kStats:
      return "stats";
    case MessageType::kPing:
      return "ping";
    case MessageType::kSnapshot:
      return "snapshot";
    case MessageType::kShutdown:
      return "shutdown";
    case MessageType::kTopK:
      return "topk";
    case MessageType::kMetrics:
      return "metrics";
    case MessageType::kWindowStats:
      return "window-stats";
    case MessageType::kEstimates:
      return "estimates";
    case MessageType::kAck:
      return "ack";
    case MessageType::kStatsReply:
      return "stats-reply";
    case MessageType::kPong:
      return "pong";
    case MessageType::kTopKReply:
      return "topk-reply";
    case MessageType::kMetricsReply:
      return "metrics-reply";
    case MessageType::kWindowStatsReply:
      return "window-stats-reply";
    case MessageType::kError:
      return "error";
  }
  return "unknown";
}

void EncodeKeyRequest(MessageType type, Span<const uint64_t> keys,
                      std::vector<uint8_t>& frame) {
  OPTHASH_CHECK_MSG(IsKeyRequest(type), "not a key-batch request type");
  BeginFrame(frame, type);
  AppendU32(frame, static_cast<uint32_t>(keys.size()));
  AppendArray(frame, keys);
  SealFrame(frame);
}

void EncodeEmptyMessage(MessageType type, std::vector<uint8_t>& frame) {
  BeginFrame(frame, type);
  SealFrame(frame);
}

void EncodeEstimatesResponse(Span<const double> estimates,
                             std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kEstimates);
  AppendU32(frame, static_cast<uint32_t>(estimates.size()));
  AppendArray(frame, estimates);
  SealFrame(frame);
}

void EncodeAckResponse(uint64_t value, std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kAck);
  AppendU64(frame, value);
  SealFrame(frame);
}

void EncodeStatsResponse(const ServerStatsSnapshot& stats,
                         std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kStatsReply);
  AppendU64(frame, stats.items_ingested);
  AppendU64(frame, stats.queries_served);
  AppendU64(frame, stats.query_requests);
  AppendU64(frame, stats.ingest_requests);
  AppendU64(frame, stats.sessions_accepted);
  AppendU64(frame, stats.snapshots_written);
  AppendU64(frame, stats.model_total_items);
  AppendDouble(frame, stats.uptime_seconds);
  AppendDouble(frame, stats.query_p50_micros);
  AppendDouble(frame, stats.query_p99_micros);
  AppendDouble(frame, stats.snapshot_age_seconds);
  SealFrame(frame);
}

void EncodeErrorResponse(const Status& error, std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kError);
  AppendU8(frame, WireCodeOfStatus(error.code()));
  const std::string& message = error.message();
  // Clamp: an error message must never push the frame past the limit.
  const size_t length =
      std::min(message.size(), kMaxFramePayload - frame.size());
  AppendU32(frame, static_cast<uint32_t>(length));
  frame.insert(frame.end(), message.data(), message.data() + length);
  SealFrame(frame);
}

void EncodeTopKRequest(uint32_t k, std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kTopK);
  AppendU32(frame, k);
  SealFrame(frame);
}

void EncodeTopKReply(Span<const sketch::HeavyHitter> hitters,
                     std::vector<uint8_t>& frame) {
  OPTHASH_CHECK_LE(hitters.size(), kMaxHittersPerFrame);
  BeginFrame(frame, MessageType::kTopKReply);
  AppendU32(frame, static_cast<uint32_t>(hitters.size()));
  for (const sketch::HeavyHitter& hitter : hitters) {
    AppendU64(frame, hitter.id);
    AppendDouble(frame, hitter.estimate);
    AppendDouble(frame, hitter.error_bound);
    AppendU8(frame, hitter.guaranteed ? 1 : 0);
  }
  SealFrame(frame);
}

void EncodeMetricsReply(const std::string& text,
                        std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kMetricsReply);
  // Clamp like error messages: a scrape body must never burst the frame.
  const size_t length =
      std::min(text.size(), kMaxFramePayload - frame.size());
  AppendU32(frame, static_cast<uint32_t>(length));
  frame.insert(frame.end(), text.data(), text.data() + length);
  SealFrame(frame);
}

void EncodeWindowStatsReply(const WindowStatsSnapshot& stats,
                            std::vector<uint8_t>& frame) {
  BeginFrame(frame, MessageType::kWindowStatsReply);
  AppendU64(frame, stats.window_items);
  AppendU64(frame, stats.window_sequence);
  AppendU64(frame, stats.items_in_current_window);
  AppendDouble(frame, stats.decay);
  AppendU32(frame, static_cast<uint32_t>(stats.window_counts.size()));
  AppendArray(frame, Span<const uint64_t>(stats.window_counts));
  SealFrame(frame);
}

Result<MessageType> PeekMessageType(Span<const uint8_t> payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty frame payload");
  }
  const auto type = static_cast<MessageType>(payload[0]);
  switch (type) {
    case MessageType::kQuery:
    case MessageType::kIngest:
    case MessageType::kStats:
    case MessageType::kPing:
    case MessageType::kSnapshot:
    case MessageType::kShutdown:
    case MessageType::kTopK:
    case MessageType::kMetrics:
    case MessageType::kWindowStats:
    case MessageType::kEstimates:
    case MessageType::kAck:
    case MessageType::kStatsReply:
    case MessageType::kPong:
    case MessageType::kTopKReply:
    case MessageType::kMetricsReply:
    case MessageType::kWindowStatsReply:
    case MessageType::kError:
      return type;
  }
  return Status::InvalidArgument("unknown message type byte " +
                                 std::to_string(payload[0]));
}

Status DecodeKeyRequest(Span<const uint8_t> payload, MessageType expected,
                        std::vector<uint64_t>& keys) {
  OPTHASH_CHECK_MSG(IsKeyRequest(expected), "not a key-batch request type");
  keys.clear();
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != expected) {
    return Status::InvalidArgument(
        std::string("expected ") + MessageTypeName(expected) + ", got " +
        MessageTypeName(type));
  }
  if (payload.size() < 1 + sizeof(uint32_t)) {
    return ShortPayload(MessageTypeName(expected));
  }
  const uint32_t count = io::LoadLittleU32(payload.data() + 1);
  const size_t body = payload.size() - 1 - sizeof(uint32_t);
  if (body != static_cast<size_t>(count) * sizeof(uint64_t)) {
    return Status::InvalidArgument(
        std::string(MessageTypeName(expected)) + " declares " +
        std::to_string(count) + " keys but carries " + std::to_string(body) +
        " body bytes");
  }
  io::ByteReader reader(payload.data() + 1 + sizeof(uint32_t), body);
  return reader.ReadU64Array(keys, count);
}

Status DecodeEmptyMessage(Span<const uint8_t> payload, MessageType expected) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != expected) {
    return Status::InvalidArgument(
        std::string("expected ") + MessageTypeName(expected) + ", got " +
        MessageTypeName(type));
  }
  if (payload.size() != 1) {
    return Status::InvalidArgument(
        std::string(MessageTypeName(expected)) +
        " carries an unexpected body");
  }
  return Status::OK();
}

Status DecodeEstimatesResponse(Span<const uint8_t> payload,
                               std::vector<double>& estimates) {
  estimates.clear();
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kEstimates) {
    return Status::InvalidArgument(std::string("expected estimates, got ") +
                                   MessageTypeName(type));
  }
  if (payload.size() < 1 + sizeof(uint32_t)) return ShortPayload("estimates");
  const uint32_t count = io::LoadLittleU32(payload.data() + 1);
  const size_t body = payload.size() - 1 - sizeof(uint32_t);
  if (body != static_cast<size_t>(count) * sizeof(double)) {
    return Status::InvalidArgument("estimates declares " +
                                   std::to_string(count) +
                                   " values but carries " +
                                   std::to_string(body) + " body bytes");
  }
  io::ByteReader reader(payload.data() + 1 + sizeof(uint32_t), body);
  return reader.ReadDoubleArray(estimates, count);
}

Result<uint64_t> DecodeAckResponse(Span<const uint8_t> payload) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kAck) {
    return Status::InvalidArgument(std::string("expected ack, got ") +
                                   MessageTypeName(type));
  }
  if (payload.size() != 1 + sizeof(uint64_t)) return ShortPayload("ack");
  return io::LoadLittleU64(payload.data() + 1);
}

Result<ServerStatsSnapshot> DecodeStatsResponse(Span<const uint8_t> payload) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kStatsReply) {
    return Status::InvalidArgument(std::string("expected stats-reply, got ") +
                                   MessageTypeName(type));
  }
  constexpr size_t kBody = 7 * sizeof(uint64_t) + 4 * sizeof(double);
  if (payload.size() != 1 + kBody) return ShortPayload("stats-reply");
  const uint8_t* at = payload.data() + 1;
  ServerStatsSnapshot stats;
  stats.items_ingested = io::LoadLittleU64(at);
  stats.queries_served = io::LoadLittleU64(at + 8);
  stats.query_requests = io::LoadLittleU64(at + 16);
  stats.ingest_requests = io::LoadLittleU64(at + 24);
  stats.sessions_accepted = io::LoadLittleU64(at + 32);
  stats.snapshots_written = io::LoadLittleU64(at + 40);
  stats.model_total_items = io::LoadLittleU64(at + 48);
  stats.uptime_seconds = io::LoadLittleDouble(at + 56);
  stats.query_p50_micros = io::LoadLittleDouble(at + 64);
  stats.query_p99_micros = io::LoadLittleDouble(at + 72);
  stats.snapshot_age_seconds = io::LoadLittleDouble(at + 80);
  return stats;
}

Result<uint32_t> DecodeTopKRequest(Span<const uint8_t> payload) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kTopK) {
    return Status::InvalidArgument(std::string("expected topk, got ") +
                                   MessageTypeName(type));
  }
  if (payload.size() != 1 + sizeof(uint32_t)) return ShortPayload("topk");
  const uint32_t k = io::LoadLittleU32(payload.data() + 1);
  if (k == 0) return Status::InvalidArgument("topk k must be positive");
  return k;
}

Status DecodeTopKReply(Span<const uint8_t> payload,
                       std::vector<sketch::HeavyHitter>& hitters) {
  hitters.clear();
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kTopKReply) {
    return Status::InvalidArgument(std::string("expected topk-reply, got ") +
                                   MessageTypeName(type));
  }
  if (payload.size() < 1 + sizeof(uint32_t)) return ShortPayload("topk-reply");
  const uint32_t count = io::LoadLittleU32(payload.data() + 1);
  const size_t body = payload.size() - 1 - sizeof(uint32_t);
  if (body != static_cast<size_t>(count) * kWireHitterSize) {
    return Status::InvalidArgument(
        "topk-reply declares " + std::to_string(count) +
        " hitters but carries " + std::to_string(body) + " body bytes");
  }
  hitters.reserve(count);
  const uint8_t* at = payload.data() + 1 + sizeof(uint32_t);
  for (uint32_t i = 0; i < count; ++i) {
    sketch::HeavyHitter hitter;
    hitter.id = io::LoadLittleU64(at);
    hitter.estimate = io::LoadLittleDouble(at + 8);
    hitter.error_bound = io::LoadLittleDouble(at + 16);
    const uint8_t flag = at[24];
    if (flag > 1) {
      return Status::InvalidArgument(
          "topk-reply guaranteed flag must be 0 or 1, got " +
          std::to_string(flag));
    }
    hitter.guaranteed = flag == 1;
    hitters.push_back(hitter);
    at += kWireHitterSize;
  }
  return Status::OK();
}

Status DecodeMetricsReply(Span<const uint8_t> payload, std::string& text) {
  text.clear();
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kMetricsReply) {
    return Status::InvalidArgument(
        std::string("expected metrics-reply, got ") + MessageTypeName(type));
  }
  if (payload.size() < 1 + sizeof(uint32_t)) {
    return ShortPayload("metrics-reply");
  }
  const uint32_t length = io::LoadLittleU32(payload.data() + 1);
  if (payload.size() != 1 + sizeof(uint32_t) + length) {
    return Status::InvalidArgument("metrics-reply payload length mismatch");
  }
  text.assign(
      reinterpret_cast<const char*>(payload.data() + 1 + sizeof(uint32_t)),
      length);
  return Status::OK();
}

Result<WindowStatsSnapshot> DecodeWindowStatsReply(
    Span<const uint8_t> payload) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kWindowStatsReply) {
    return Status::InvalidArgument(
        std::string("expected window-stats-reply, got ") +
        MessageTypeName(type));
  }
  constexpr size_t kFixed = 3 * sizeof(uint64_t) + sizeof(double) +
                            sizeof(uint32_t);
  if (payload.size() < 1 + kFixed) return ShortPayload("window-stats-reply");
  const uint8_t* at = payload.data() + 1;
  WindowStatsSnapshot stats;
  stats.window_items = io::LoadLittleU64(at);
  stats.window_sequence = io::LoadLittleU64(at + 8);
  stats.items_in_current_window = io::LoadLittleU64(at + 16);
  stats.decay = io::LoadLittleDouble(at + 24);
  const uint32_t count = io::LoadLittleU32(at + 32);
  const size_t body = payload.size() - 1 - kFixed;
  if (body != static_cast<size_t>(count) * sizeof(uint64_t)) {
    return Status::InvalidArgument(
        "window-stats-reply declares " + std::to_string(count) +
        " windows but carries " + std::to_string(body) + " body bytes");
  }
  io::ByteReader reader(at + kFixed, body);
  OPTHASH_IO_RETURN_IF_ERROR(reader.ReadU64Array(stats.window_counts, count));
  return stats;
}

Status DecodeErrorResponse(Span<const uint8_t> payload, Status& remote) {
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type != MessageType::kError) {
    return Status::InvalidArgument(std::string("expected error, got ") +
                                   MessageTypeName(type));
  }
  if (payload.size() < 2 + sizeof(uint32_t)) return ShortPayload("error");
  const uint8_t wire = payload[1];
  const uint32_t length = io::LoadLittleU32(payload.data() + 2);
  if (payload.size() != 2 + sizeof(uint32_t) + length) {
    return Status::InvalidArgument("error payload length mismatch");
  }
  std::string message(
      reinterpret_cast<const char*>(payload.data() + 2 + sizeof(uint32_t)),
      length);
  switch (StatusCodeOfWire(wire)) {
    case StatusCode::kInvalidArgument:
      remote = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case StatusCode::kOutOfRange:
      remote = Status::OutOfRange(std::move(message));
      return Status::OK();
    case StatusCode::kFailedPrecondition:
      remote = Status::FailedPrecondition(std::move(message));
      return Status::OK();
    case StatusCode::kNotFound:
      remote = Status::NotFound(std::move(message));
      return Status::OK();
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  remote = Status::Internal(std::move(message));
  return Status::OK();
}

uint8_t WireCodeOfStatus(StatusCode code) {
  return static_cast<uint8_t>(code);
}

StatusCode StatusCodeOfWire(uint8_t wire) {
  switch (wire) {
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kOutOfRange;
    case 3:
      return StatusCode::kFailedPrecondition;
    case 4:
      return StatusCode::kNotFound;
    default:
      return StatusCode::kInternal;
  }
}

}  // namespace opthash::server
