#ifndef OPTHASH_SERVER_PROTOCOL_H_
#define OPTHASH_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "sketch/top_k.h"

namespace opthash::server {

/// The opthash serving wire protocol (byte-level spec: docs/OPERATIONS.md).
///
/// Every message travels as one length-prefixed frame:
///
///   u32  payload_length   (little-endian; bytes that follow)
///   u8   message_type     (first payload byte)
///   ...  type-specific body
///
/// All integers are little-endian; doubles are IEEE-754 bit patterns.
/// Frames above kMaxFramePayload are rejected before any allocation
/// proportional to the claimed length, so a hostile 4 GB header cannot
/// balloon the server. Malformed payloads decode to a clean
/// InvalidArgument Status — never a crash — and terminate the session;
/// semantic failures (e.g. ingest into a read-only model) travel back as
/// kError responses and keep the session alive.

/// Upper bound on one frame's payload bytes (4 MiB ≈ 500k keys/frame).
inline constexpr size_t kMaxFramePayload = 4u << 20;
/// Bytes of the length prefix preceding every payload.
inline constexpr size_t kFrameHeaderSize = 4;
/// Keys fitting one query/ingest frame (type byte + u32 count + 8/key).
inline constexpr size_t kMaxKeysPerFrame =
    (kMaxFramePayload - 1 - sizeof(uint32_t)) / sizeof(uint64_t);
/// Bytes of one serialized heavy hitter in a kTopKReply body.
inline constexpr size_t kWireHitterSize =
    sizeof(uint64_t) + 2 * sizeof(double) + 1;
/// Hitters fitting one topk-reply frame (type byte + u32 count + 25/entry).
inline constexpr size_t kMaxHittersPerFrame =
    (kMaxFramePayload - 1 - sizeof(uint32_t)) / kWireHitterSize;

/// Stable on-wire message identifiers — never renumber.
enum class MessageType : uint8_t {
  // Requests.
  kQuery = 1,     // u32 count, count x u64 keys -> kEstimates
  kIngest = 2,    // u32 count, count x u64 keys -> kAck(items this run)
  kStats = 3,     // (empty)                     -> kStats
  kPing = 4,      // (empty)                     -> kPong
  kSnapshot = 5,  // (empty)                     -> kAck(rotation sequence)
  kShutdown = 6,  // (empty)                     -> kAck(0), then shutdown
  kTopK = 7,      // u32 k                       -> kTopKReply
  kMetrics = 8,   // (empty)                     -> kMetricsReply
  // 9 is retired (a scoped-request envelope that only ever served model
  // id 0). It is rejected as an unknown type and must never be reused.
  kWindowStats = 10,  // (empty)                   -> kWindowStatsReply
  // Responses.
  kEstimates = 129,  // u32 count, count x f64
  kAck = 130,        // u64 value
  kStatsReply = 131, // ServerStatsSnapshot body
  kPong = 132,       // (empty)
  kTopKReply = 133,    // u32 count, count x (u64 id, f64 est, f64 err, u8 g)
  kMetricsReply = 134, // u32 length + Prometheus text exposition bytes
  kWindowStatsReply = 135,  // WindowStatsSnapshot body
  kError = 255,      // u8 wire code, u32 length + message bytes
};

const char* MessageTypeName(MessageType type);

/// Operational counters served by the kStats request; also the
/// human-readable output of `opthash_client stats`.
struct ServerStatsSnapshot {
  uint64_t items_ingested = 0;    // Arrivals accepted by this process.
  uint64_t queries_served = 0;    // Individual keys answered.
  uint64_t query_requests = 0;    // kQuery frames handled.
  uint64_t ingest_requests = 0;   // kIngest frames handled.
  uint64_t sessions_accepted = 0;
  uint64_t snapshots_written = 0;      // Rotations this run.
  uint64_t model_total_items = 0;      // Model-lifetime arrivals (0 = n/a).
  double uptime_seconds = 0.0;
  double query_p50_micros = 0.0;       // Server-side request latency.
  double query_p99_micros = 0.0;
  double snapshot_age_seconds = -1.0;  // < 0: no rotation yet this run.
};

/// Ring-position report served by the kWindowStats request — lets clients
/// see window boundaries (and verify crash recovery resumed mid-window).
/// Only windowed models answer it; everything else replies
/// kError(FailedPrecondition) and the session survives.
struct WindowStatsSnapshot {
  uint64_t window_items = 0;             // 0 = tick-only advance.
  uint64_t window_sequence = 0;          // Ring advances since creation.
  uint64_t items_in_current_window = 0;
  double decay = 1.0;                    // 1.0 = plain sliding window.
  std::vector<uint64_t> window_counts;   // Oldest window first.
};

// --------------------------------------------------------------------------
// Encoding. Every Encode* renders one COMPLETE frame (length prefix
// included) into `frame`, clearing it first — callers hand the same vector
// back in so its capacity is reused and a warm session encodes without
// heap allocation.

/// `type` must be kQuery or kIngest.
void EncodeKeyRequest(MessageType type, Span<const uint64_t> keys,
                      std::vector<uint8_t>& frame);
/// For the body-less requests (kStats/kPing/kSnapshot/kShutdown).
void EncodeEmptyMessage(MessageType type, std::vector<uint8_t>& frame);
void EncodeEstimatesResponse(Span<const double> estimates,
                             std::vector<uint8_t>& frame);
void EncodeAckResponse(uint64_t value, std::vector<uint8_t>& frame);
void EncodeStatsResponse(const ServerStatsSnapshot& stats,
                         std::vector<uint8_t>& frame);
void EncodeErrorResponse(const Status& error, std::vector<uint8_t>& frame);

/// kTopK request: ask for the k heaviest keys of the served model.
void EncodeTopKRequest(uint32_t k, std::vector<uint8_t>& frame);

/// kTopKReply: hitters.size() must be <= kMaxHittersPerFrame (the server
/// clamps k before answering, so a reply always fits one frame).
void EncodeTopKReply(Span<const sketch::HeavyHitter> hitters,
                     std::vector<uint8_t>& frame);

/// kMetricsReply: the rendered Prometheus text exposition. Clamped at the
/// frame cap like error messages (a scrape body never comes close).
void EncodeMetricsReply(const std::string& text, std::vector<uint8_t>& frame);

/// kWindowStatsReply: ring metadata + per-window arrival counts.
/// stats.window_counts.size() must fit one frame (a W beyond ~500k
/// windows is rejected long before serving).
void EncodeWindowStatsReply(const WindowStatsSnapshot& stats,
                            std::vector<uint8_t>& frame);

// --------------------------------------------------------------------------
// Decoding. Input is one frame payload (the bytes after the length
// prefix). Every decoder rejects a short, oversized, or inconsistent body
// with InvalidArgument; none of them crash on garbage.

/// First payload byte as a MessageType; rejects empty payloads and byte
/// values that name no known message.
Result<MessageType> PeekMessageType(Span<const uint8_t> payload);

/// Decodes a kQuery/kIngest body into `keys` (cleared, capacity reused).
/// The declared count must match the payload size exactly.
Status DecodeKeyRequest(Span<const uint8_t> payload, MessageType expected,
                        std::vector<uint64_t>& keys);

/// Accepts only `expected` with an empty body.
Status DecodeEmptyMessage(Span<const uint8_t> payload, MessageType expected);

Status DecodeEstimatesResponse(Span<const uint8_t> payload,
                               std::vector<double>& estimates);
Result<uint64_t> DecodeAckResponse(Span<const uint8_t> payload);
Result<ServerStatsSnapshot> DecodeStatsResponse(Span<const uint8_t> payload);

/// Decodes a kTopK body; rejects k == 0.
Result<uint32_t> DecodeTopKRequest(Span<const uint8_t> payload);

/// Decodes a kTopKReply body into `hitters` (cleared, capacity reused).
/// The guaranteed byte must be strictly 0 or 1.
Status DecodeTopKReply(Span<const uint8_t> payload,
                       std::vector<sketch::HeavyHitter>& hitters);

/// Decodes a kMetricsReply body into `text`.
Status DecodeMetricsReply(Span<const uint8_t> payload, std::string& text);

/// Decodes a kWindowStatsReply body; the declared window count must match
/// the payload size exactly.
Result<WindowStatsSnapshot> DecodeWindowStatsReply(
    Span<const uint8_t> payload);

/// Reconstructs the remote Status carried by a kError payload into
/// `remote`; the return value reports whether the payload itself decoded.
Status DecodeErrorResponse(Span<const uint8_t> payload, Status& remote);

/// StatusCode <-> on-wire error code (the u8 in kError frames). Unknown
/// wire codes map to kInternal rather than failing: an old client must
/// still surface errors from a newer server.
uint8_t WireCodeOfStatus(StatusCode code);
StatusCode StatusCodeOfWire(uint8_t wire);

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_PROTOCOL_H_
