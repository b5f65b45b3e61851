// Wire-protocol round-trips and hostile-input rejection: every frame
// kind encodes/decodes losslessly, and truncated, oversized, garbage or
// type-confused payloads come back as a clean Status — never a crash.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "server/protocol.h"

namespace opthash::server {
namespace {

Span<const uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  // Strip the length prefix: decoders consume payloads, not frames.
  return Span<const uint8_t>(frame.data() + kFrameHeaderSize,
                             frame.size() - kFrameHeaderSize);
}

uint32_t LengthPrefixOf(const std::vector<uint8_t>& frame) {
  return static_cast<uint32_t>(frame[0]) |
         (static_cast<uint32_t>(frame[1]) << 8) |
         (static_cast<uint32_t>(frame[2]) << 16) |
         (static_cast<uint32_t>(frame[3]) << 24);
}

TEST(ServerProtocolTest, KeyRequestRoundTripsBothTypes) {
  const std::vector<uint64_t> keys = {0, 1, 42, ~uint64_t{0}, 1ull << 63};
  for (const MessageType type :
       {MessageType::kQuery, MessageType::kIngest}) {
    std::vector<uint8_t> frame;
    EncodeKeyRequest(type, keys, frame);
    EXPECT_EQ(LengthPrefixOf(frame), frame.size() - kFrameHeaderSize);
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(DecodeKeyRequest(PayloadOf(frame), type, decoded).ok());
    EXPECT_EQ(decoded, keys);
  }
}

TEST(ServerProtocolTest, EmptyKeyRequestRoundTrips) {
  std::vector<uint8_t> frame;
  EncodeKeyRequest(MessageType::kQuery, {}, frame);
  std::vector<uint64_t> decoded = {99};
  ASSERT_TRUE(
      DecodeKeyRequest(PayloadOf(frame), MessageType::kQuery, decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ServerProtocolTest, EstimatesResponseRoundTrips) {
  const std::vector<double> estimates = {0.0, 1.5, -3.25, 1e300};
  std::vector<uint8_t> frame;
  EncodeEstimatesResponse(estimates, frame);
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeEstimatesResponse(PayloadOf(frame), decoded).ok());
  EXPECT_EQ(decoded, estimates);  // Bit-exact through the u64 pattern.
}

TEST(ServerProtocolTest, AckAndPongAndEmptyRequestsRoundTrip) {
  std::vector<uint8_t> frame;
  EncodeAckResponse(77, frame);
  auto ack = DecodeAckResponse(PayloadOf(frame));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value(), 77u);

  for (const MessageType type :
       {MessageType::kStats, MessageType::kPing, MessageType::kSnapshot,
        MessageType::kShutdown, MessageType::kPong}) {
    EncodeEmptyMessage(type, frame);
    EXPECT_TRUE(DecodeEmptyMessage(PayloadOf(frame), type).ok());
  }
}

TEST(ServerProtocolTest, StatsResponseRoundTripsEveryField) {
  ServerStatsSnapshot stats;
  stats.items_ingested = 1;
  stats.queries_served = 2;
  stats.query_requests = 3;
  stats.ingest_requests = 4;
  stats.sessions_accepted = 5;
  stats.snapshots_written = 6;
  stats.model_total_items = 7;
  stats.uptime_seconds = 8.5;
  stats.query_p50_micros = 9.25;
  stats.query_p99_micros = 10.125;
  stats.snapshot_age_seconds = -1.0;
  std::vector<uint8_t> frame;
  EncodeStatsResponse(stats, frame);
  EXPECT_EQ(frame[kFrameHeaderSize],
            static_cast<uint8_t>(MessageType::kStatsReply));
  auto decoded = DecodeStatsResponse(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().items_ingested, 1u);
  EXPECT_EQ(decoded.value().queries_served, 2u);
  EXPECT_EQ(decoded.value().query_requests, 3u);
  EXPECT_EQ(decoded.value().ingest_requests, 4u);
  EXPECT_EQ(decoded.value().sessions_accepted, 5u);
  EXPECT_EQ(decoded.value().snapshots_written, 6u);
  EXPECT_EQ(decoded.value().model_total_items, 7u);
  EXPECT_DOUBLE_EQ(decoded.value().uptime_seconds, 8.5);
  EXPECT_DOUBLE_EQ(decoded.value().query_p50_micros, 9.25);
  EXPECT_DOUBLE_EQ(decoded.value().query_p99_micros, 10.125);
  EXPECT_DOUBLE_EQ(decoded.value().snapshot_age_seconds, -1.0);
}

TEST(ServerProtocolTest, ErrorResponseRoundTripsCodeAndMessage) {
  std::vector<uint8_t> frame;
  EncodeErrorResponse(Status::FailedPrecondition("read-only model"), frame);
  Status remote;
  ASSERT_TRUE(DecodeErrorResponse(PayloadOf(frame), remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(remote.message(), "read-only model");
}

TEST(ServerProtocolTest, UnknownWireCodeDecodesAsInternal) {
  // A newer server may send codes this client does not know; they must
  // still surface as errors.
  std::vector<uint8_t> frame;
  EncodeErrorResponse(Status::Internal("future"), frame);
  std::vector<uint8_t> payload(PayloadOf(frame).begin(),
                               PayloadOf(frame).end());
  payload[1] = 200;  // Unassigned wire code.
  Status remote;
  ASSERT_TRUE(
      DecodeErrorResponse(Span<const uint8_t>(payload.data(), payload.size()),
                          remote)
          .ok());
  EXPECT_EQ(remote.code(), StatusCode::kInternal);
}

TEST(ServerProtocolTest, EmptyPayloadRejected) {
  EXPECT_FALSE(PeekMessageType(Span<const uint8_t>(nullptr, 0)).ok());
}

TEST(ServerProtocolTest, GarbageTypeByteRejected) {
  // 9 is the retired scoped-request envelope: unknown, like any garbage.
  for (const uint8_t type : {uint8_t{73}, uint8_t{9}}) {
    const uint8_t garbage[] = {type, 0, 0};
    EXPECT_FALSE(PeekMessageType(Span<const uint8_t>(garbage, 3)).ok())
        << "type byte " << int{type};
  }
}

TEST(ServerProtocolTest, TruncatedKeyRequestRejected) {
  std::vector<uint8_t> frame;
  const std::vector<uint64_t> keys = {1, 2, 3};
  EncodeKeyRequest(MessageType::kQuery, keys, frame);
  std::vector<uint64_t> decoded;
  // Chop bytes off the tail: every prefix must fail cleanly.
  for (size_t keep = 0; keep + kFrameHeaderSize < frame.size(); ++keep) {
    const Status status = DecodeKeyRequest(
        Span<const uint8_t>(frame.data() + kFrameHeaderSize, keep),
        MessageType::kQuery, decoded);
    EXPECT_FALSE(status.ok()) << "prefix of " << keep << " bytes decoded";
  }
}

TEST(ServerProtocolTest, OversizedCountRejected) {
  // Declared count larger than the body actually carries.
  std::vector<uint8_t> frame;
  const std::vector<uint64_t> keys = {1, 2};
  EncodeKeyRequest(MessageType::kQuery, keys, frame);
  frame[kFrameHeaderSize + 1] = 200;  // count LSB: claims 200 keys.
  std::vector<uint64_t> decoded;
  EXPECT_FALSE(
      DecodeKeyRequest(PayloadOf(frame), MessageType::kQuery, decoded).ok());
}

TEST(ServerProtocolTest, TrailingBytesOnEmptyRequestRejected) {
  std::vector<uint8_t> frame;
  EncodeEmptyMessage(MessageType::kPing, frame);
  frame.push_back(0);  // Unexpected body byte.
  EXPECT_FALSE(
      DecodeEmptyMessage(Span<const uint8_t>(frame.data() + kFrameHeaderSize,
                                             frame.size() - kFrameHeaderSize),
                         MessageType::kPing)
          .ok());
}

TEST(ServerProtocolTest, TypeConfusionRejected) {
  std::vector<uint8_t> frame;
  const std::vector<uint64_t> keys = {1};
  EncodeKeyRequest(MessageType::kQuery, keys, frame);
  std::vector<uint64_t> decoded;
  EXPECT_FALSE(
      DecodeKeyRequest(PayloadOf(frame), MessageType::kIngest, decoded).ok());
  EXPECT_FALSE(DecodeEmptyMessage(PayloadOf(frame), MessageType::kPing).ok());
  EXPECT_FALSE(DecodeAckResponse(PayloadOf(frame)).ok());
  std::vector<double> estimates;
  EXPECT_FALSE(DecodeEstimatesResponse(PayloadOf(frame), estimates).ok());
  auto stats = DecodeStatsResponse(PayloadOf(frame));
  EXPECT_FALSE(stats.ok());
}

TEST(ServerProtocolTest, TopKRequestRoundTripsAndRejectsZero) {
  std::vector<uint8_t> frame;
  EncodeTopKRequest(123, frame);
  EXPECT_EQ(LengthPrefixOf(frame), frame.size() - kFrameHeaderSize);
  auto k = DecodeTopKRequest(PayloadOf(frame));
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k.value(), 123u);

  // k == 0 is a protocol violation, not an empty answer.
  EncodeTopKRequest(0, frame);
  EXPECT_FALSE(DecodeTopKRequest(PayloadOf(frame)).ok());
}

TEST(ServerProtocolTest, TopKReplyRoundTripsEveryField) {
  const std::vector<sketch::HeavyHitter> hitters = {
      {42, 1000.5, 12.25, false},
      {~uint64_t{0}, 3.0, 0.0, true},
      {0, 0.0, 0.0, false},
  };
  std::vector<uint8_t> frame;
  EncodeTopKReply(Span<const sketch::HeavyHitter>(hitters.data(),
                                                  hitters.size()),
                  frame);
  EXPECT_EQ(frame.size() - kFrameHeaderSize,
            1 + 4 + hitters.size() * kWireHitterSize);
  std::vector<sketch::HeavyHitter> decoded;
  ASSERT_TRUE(DecodeTopKReply(PayloadOf(frame), decoded).ok());
  EXPECT_EQ(decoded, hitters);

  EncodeTopKReply({}, frame);
  ASSERT_TRUE(DecodeTopKReply(PayloadOf(frame), decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(ServerProtocolTest, TopKReplyHostilePayloadsRejected) {
  const std::vector<sketch::HeavyHitter> hitters = {{1, 2.0, 0.5, true}};
  std::vector<uint8_t> frame;
  EncodeTopKReply(Span<const sketch::HeavyHitter>(hitters.data(), 1), frame);
  std::vector<sketch::HeavyHitter> decoded;

  // Every truncated prefix fails cleanly.
  for (size_t keep = 0; keep + kFrameHeaderSize < frame.size(); ++keep) {
    EXPECT_FALSE(
        DecodeTopKReply(
            Span<const uint8_t>(frame.data() + kFrameHeaderSize, keep),
            decoded)
            .ok())
        << "prefix of " << keep << " bytes decoded";
  }
  // Count claiming more entries than the body carries.
  std::vector<uint8_t> oversized(PayloadOf(frame).begin(),
                                 PayloadOf(frame).end());
  oversized[1] = 200;
  EXPECT_FALSE(
      DecodeTopKReply(
          Span<const uint8_t>(oversized.data(), oversized.size()), decoded)
          .ok());
  // The guaranteed flag is strictly 0/1 on the wire.
  std::vector<uint8_t> bad_flag(PayloadOf(frame).begin(),
                                PayloadOf(frame).end());
  bad_flag.back() = 2;
  EXPECT_FALSE(
      DecodeTopKReply(Span<const uint8_t>(bad_flag.data(), bad_flag.size()),
                      decoded)
          .ok());
}

TEST(ServerProtocolTest, MetricsFramesRoundTrip) {
  std::vector<uint8_t> frame;
  EncodeEmptyMessage(MessageType::kMetrics, frame);
  EXPECT_TRUE(DecodeEmptyMessage(PayloadOf(frame), MessageType::kMetrics).ok());

  const std::string body =
      "# HELP opthash_items_ingested_total x\n"
      "opthash_items_ingested_total 7\n";
  EncodeMetricsReply(body, frame);
  std::string decoded;
  ASSERT_TRUE(DecodeMetricsReply(PayloadOf(frame), decoded).ok());
  EXPECT_EQ(decoded, body);

  // Pathological scrape bodies clamp to the frame cap instead of
  // breaching it.
  EncodeMetricsReply(std::string(kMaxFramePayload + 1000, 'x'), frame);
  EXPECT_LE(frame.size() - kFrameHeaderSize, kMaxFramePayload);
  ASSERT_TRUE(DecodeMetricsReply(PayloadOf(frame), decoded).ok());
}

TEST(ServerProtocolTest, UnscopedWireBytesUnchangedByEnvelopeIntroduction) {
  // Golden frames: the bare request wire images from before the
  // (now retired) type-9 envelope existed. Clients must keep emitting
  // exactly these bytes, or deployed daemons break.
  std::vector<uint8_t> frame;
  EncodeEmptyMessage(MessageType::kPing, frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 0, 0, 0, 4}));
  EncodeEmptyMessage(MessageType::kStats, frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 0, 0, 0, 3}));
  const std::vector<uint64_t> keys = {2};
  EncodeKeyRequest(MessageType::kQuery,
                   Span<const uint64_t>(keys.data(), 1), frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{13, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0,
                                         0, 0, 0, 0, 0}));
  // And the new request types pin their documented layouts.
  EncodeTopKRequest(5, frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{5, 0, 0, 0, 7, 5, 0, 0, 0}));
  EncodeEmptyMessage(MessageType::kMetrics, frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 0, 0, 0, 8}));
}

TEST(ServerProtocolTest, WindowStatsFramesGoldenBytesRoundTrip) {
  // The windowed-counting wire pair, pinned byte for byte against the
  // docs/OPERATIONS.md layout (request type 10, reply type 135) so a
  // codec change that would strand deployed clients fails here.
  std::vector<uint8_t> frame;
  EncodeEmptyMessage(MessageType::kWindowStats, frame);
  EXPECT_EQ(frame, (std::vector<uint8_t>{1, 0, 0, 0, 10}));
  EXPECT_TRUE(
      DecodeEmptyMessage(PayloadOf(frame), MessageType::kWindowStats).ok());

  WindowStatsSnapshot stats;
  stats.window_items = 4;
  stats.window_sequence = 7;
  stats.items_in_current_window = 2;
  stats.decay = 0.5;
  stats.window_counts = {3, 1};
  EncodeWindowStatsReply(stats, frame);
  EXPECT_EQ(frame,
            (std::vector<uint8_t>{
                53, 0, 0, 0,                       // length prefix
                135,                               // kWindowStatsReply
                4, 0, 0, 0, 0, 0, 0, 0,            // window_items
                7, 0, 0, 0, 0, 0, 0, 0,            // window_sequence
                2, 0, 0, 0, 0, 0, 0, 0,            // items_in_current_window
                0, 0, 0, 0, 0, 0, 0xe0, 0x3f,      // decay 0.5 (IEEE-754)
                2, 0, 0, 0,                        // window count
                3, 0, 0, 0, 0, 0, 0, 0,            // oldest window first
                1, 0, 0, 0, 0, 0, 0, 0}));
  auto decoded = DecodeWindowStatsReply(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().window_items, 4u);
  EXPECT_EQ(decoded.value().window_sequence, 7u);
  EXPECT_EQ(decoded.value().items_in_current_window, 2u);
  EXPECT_DOUBLE_EQ(decoded.value().decay, 0.5);
  EXPECT_EQ(decoded.value().window_counts, (std::vector<uint64_t>{3, 1}));
}

TEST(ServerProtocolTest, WindowStatsReplyHostilePayloadsRejected) {
  WindowStatsSnapshot stats;
  stats.window_counts = {5, 6, 7};
  std::vector<uint8_t> frame;
  EncodeWindowStatsReply(stats, frame);

  // Truncations at every boundary: inside the fixed prefix and inside
  // the per-window counts must both reject, never over-read.
  for (const size_t keep : {size_t{1}, size_t{8}, size_t{36},
                            frame.size() - kFrameHeaderSize - 3}) {
    const Span<const uint8_t> cut(frame.data() + kFrameHeaderSize, keep);
    EXPECT_FALSE(DecodeWindowStatsReply(cut).ok()) << keep;
  }

  // Declared window count inconsistent with the carried body bytes.
  std::vector<uint8_t> lying = frame;
  lying[kFrameHeaderSize + 33] = 200;  // count field, says 200 windows
  EXPECT_FALSE(DecodeWindowStatsReply(PayloadOf(lying)).ok());

  // Type confusion: a pong is not a window-stats-reply, a reply is not
  // the empty request, and a request with a body is a violation.
  std::vector<uint8_t> pong;
  EncodeEmptyMessage(MessageType::kPong, pong);
  EXPECT_FALSE(DecodeWindowStatsReply(PayloadOf(pong)).ok());
  EXPECT_FALSE(
      DecodeEmptyMessage(PayloadOf(frame), MessageType::kWindowStats).ok());
  std::vector<uint8_t> fat_request = {
      static_cast<uint8_t>(MessageType::kWindowStats), 0};
  EXPECT_FALSE(
      DecodeEmptyMessage(
          Span<const uint8_t>(fat_request.data(), fat_request.size()),
          MessageType::kWindowStats)
          .ok());
}

TEST(ServerProtocolTest, ErrorMessageClampedToFrameLimit) {
  // A pathologically long message must not breach kMaxFramePayload.
  const std::string huge(kMaxFramePayload + 1000, 'x');
  std::vector<uint8_t> frame;
  EncodeErrorResponse(Status::Internal(huge), frame);
  EXPECT_LE(frame.size() - kFrameHeaderSize, kMaxFramePayload);
  Status remote;
  ASSERT_TRUE(DecodeErrorResponse(PayloadOf(frame), remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace opthash::server
