#include "server/client.h"

#include <utility>

#include "io/bytes.h"
#include "server/socket_io.h"
#include "server/tcp_listener.h"

namespace opthash::server {
namespace {

Status RemoteError(Span<const uint8_t> payload) {
  Status error;
  OPTHASH_IO_RETURN_IF_ERROR(DecodeErrorResponse(payload, error));
  const std::string message = "server: " + error.message();
  switch (error.code()) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kOk:
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(message);
}

}  // namespace

Result<Client> Client::Connect(const std::string& target) {
  if (LooksLikeHostPort(target)) {
    auto address = ParseHostPort(target);
    if (!address.ok()) return address.status();
    auto fd = ConnectTcp(address.value());
    if (!fd.ok()) return fd.status();
    return Client(fd.value());
  }
  auto fd = ConnectUnix(target);
  if (!fd.ok()) return fd.status();
  return Client(fd.value());
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      request_frame_(std::move(other.request_frame_)),
      response_payload_(std::move(other.response_payload_)),
      chunk_estimates_(std::move(other.chunk_estimates_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    CloseSocket(fd_);
    fd_ = other.fd_;
    request_frame_ = std::move(other.request_frame_);
    response_payload_ = std::move(other.response_payload_);
    chunk_estimates_ = std::move(other.chunk_estimates_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { CloseSocket(fd_); }

Result<Span<const uint8_t>> Client::Call() {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  OPTHASH_IO_RETURN_IF_ERROR(WriteAll(
      fd_, Span<const uint8_t>(request_frame_.data(), request_frame_.size())));
  OPTHASH_IO_RETURN_IF_ERROR(ReadFramePayload(fd_, response_payload_));
  const Span<const uint8_t> payload(response_payload_.data(),
                                    response_payload_.size());
  OPTHASH_IO_ASSIGN(type, PeekMessageType(payload));
  if (type == MessageType::kError) return RemoteError(payload);
  return payload;
}

Status Client::Ping() {
  EncodeEmptyMessage(MessageType::kPing, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeEmptyMessage(payload, MessageType::kPong);
}

Status Client::Query(Span<const uint64_t> keys, std::vector<double>& out) {
  out.clear();
  out.reserve(keys.size());
  // Transparent chunking: spans beyond one frame's key capacity become
  // several requests (the encoder would otherwise trip its frame-size
  // invariant — an abort, not a Status).
  for (size_t base = 0; base < keys.size() || base == 0;
       base += kMaxKeysPerFrame) {
    const Span<const uint64_t> chunk = keys.subspan(base, kMaxKeysPerFrame);
    EncodeKeyRequest(MessageType::kQuery, chunk, request_frame_);
    OPTHASH_IO_ASSIGN(payload, Call());
    OPTHASH_IO_RETURN_IF_ERROR(
        DecodeEstimatesResponse(payload, chunk_estimates_));
    if (chunk_estimates_.size() != chunk.size()) {
      return Status::Internal(
          "server answered " + std::to_string(chunk_estimates_.size()) +
          " estimates for " + std::to_string(chunk.size()) + " keys");
    }
    out.insert(out.end(), chunk_estimates_.begin(), chunk_estimates_.end());
    if (keys.empty()) break;
  }
  return Status::OK();
}

Result<uint64_t> Client::Ingest(Span<const uint64_t> keys) {
  uint64_t total = 0;
  for (size_t base = 0; base < keys.size() || base == 0;
       base += kMaxKeysPerFrame) {
    const Span<const uint64_t> chunk = keys.subspan(base, kMaxKeysPerFrame);
    EncodeKeyRequest(MessageType::kIngest, chunk, request_frame_);
    OPTHASH_IO_ASSIGN(payload, Call());
    OPTHASH_IO_ASSIGN(acked, DecodeAckResponse(payload));
    total = acked;
    if (keys.empty()) break;
  }
  return total;
}

Result<ServerStatsSnapshot> Client::Stats() {
  EncodeEmptyMessage(MessageType::kStats, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeStatsResponse(payload);
}

Status Client::TopK(uint32_t k, std::vector<sketch::HeavyHitter>& out) {
  EncodeTopKRequest(k, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeTopKReply(payload, out);
}

Status Client::Metrics(std::string& text) {
  EncodeEmptyMessage(MessageType::kMetrics, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeMetricsReply(payload, text);
}

Result<WindowStatsSnapshot> Client::WindowStats() {
  EncodeEmptyMessage(MessageType::kWindowStats, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeWindowStatsReply(payload);
}

Result<uint64_t> Client::Snapshot() {
  EncodeEmptyMessage(MessageType::kSnapshot, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  return DecodeAckResponse(payload);
}

Status Client::Shutdown() {
  EncodeEmptyMessage(MessageType::kShutdown, request_frame_);
  OPTHASH_IO_ASSIGN(payload, Call());
  OPTHASH_IO_ASSIGN(ack, DecodeAckResponse(payload));
  (void)ack;
  return Status::OK();
}

}  // namespace opthash::server
