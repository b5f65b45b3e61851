// Deterministic protocol fuzz over both serving transports: seeded
// frame mutations (bit flips, truncations, length-prefix corruption,
// splices, pure garbage) thrown at a live daemon. The invariants under
// fuzz are the daemon's survival contract: it never crashes, answers
// protocol violations with one error frame and a hangup, and always
// comes back to serve the next well-formed client. Every socket carries
// a receive timeout so a wedged daemon fails the test instead of
// hanging the suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "server/tcp_listener.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace opthash::server {
namespace {

std::string FreshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/opthash_fuzz_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::unique_ptr<ServedModel> FreshCms() {
  FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = 512;
  spec.depth = 4;
  spec.seed = 3;
  // Serve a windowed ring so mutated window-stats frames exercise the
  // real reply path, not just the FailedPrecondition shortcut. Windows
  // big enough that the final sanity queries stay in the live window.
  spec.windows = 3;
  spec.window_items = 1000;
  auto model = CreateServedSketch(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Walks the byte stream exactly like the server's frame parser and
/// reports whether any complete frame in it is a valid kShutdown — the
/// one mutation outcome the fuzzer must not deliver, or it would stop the
/// daemon mid-run by *succeeding*.
bool ContainsValidShutdown(const std::vector<uint8_t>& bytes) {
  size_t head = 0;
  while (bytes.size() - head >= kFrameHeaderSize) {
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + head, sizeof(length));
    if (length > kMaxFramePayload) return false;  // Parser errors here.
    if (bytes.size() - head - kFrameHeaderSize < length) return false;
    const uint8_t* payload = bytes.data() + head + kFrameHeaderSize;
    if (length == 1 &&
        payload[0] == static_cast<uint8_t>(MessageType::kShutdown)) {
      return true;
    }
    head += kFrameHeaderSize + length;
  }
  return false;
}

/// A valid request frame to mutate (never kShutdown as the base),
/// covering every request type: top-k, metrics and the windowed-counting
/// window-stats verb.
std::vector<uint8_t> ValidBaseFrame(Rng& rng) {
  std::vector<uint8_t> frame;
  switch (rng.NextBounded(8)) {
    case 0:
      EncodeEmptyMessage(MessageType::kPing, frame);
      break;
    case 1:
      EncodeEmptyMessage(MessageType::kStats, frame);
      break;
    case 2:
      EncodeEmptyMessage(MessageType::kSnapshot, frame);
      break;
    case 3:
      EncodeTopKRequest(1 + static_cast<uint32_t>(rng.NextBounded(64)),
                        frame);
      break;
    case 4:
      EncodeEmptyMessage(MessageType::kMetrics, frame);
      break;
    case 5:
      EncodeEmptyMessage(MessageType::kWindowStats, frame);
      break;
    default: {
      std::vector<uint64_t> keys(1 + rng.NextBounded(32));
      for (uint64_t& key : keys) key = rng.NextBounded(10000);
      const MessageType type = rng.NextBounded(2) == 0
                                   ? MessageType::kQuery
                                   : MessageType::kIngest;
      EncodeKeyRequest(type,
                       Span<const uint64_t>(keys.data(), keys.size()),
                       frame);
      break;
    }
  }
  return frame;
}

std::vector<uint8_t> MutatedFrames(Rng& rng) {
  std::vector<uint8_t> bytes = ValidBaseFrame(rng);
  switch (rng.NextBounded(6)) {
    case 0: {  // Pure garbage, no structure at all.
      bytes.resize(rng.NextBounded(64));
      for (uint8_t& byte : bytes) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      break;
    }
    case 1: {  // Bit flips anywhere, header included.
      const size_t flips = 1 + rng.NextBounded(8);
      for (size_t i = 0; i < flips; ++i) {
        const size_t at = rng.NextBounded(bytes.size());
        bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 2: {  // Truncation: the peer will vanish mid-frame.
      bytes.resize(rng.NextBounded(bytes.size()));
      break;
    }
    case 3: {  // Corrupted length prefix, sometimes past the frame cap.
      uint32_t length = static_cast<uint32_t>(rng.NextUint64());
      if (rng.NextBounded(2) == 0) {
        length = kMaxFramePayload + 1 +
                 static_cast<uint32_t>(rng.NextBounded(1u << 20));
      }
      std::memcpy(bytes.data(), &length, sizeof(length));
      break;
    }
    case 4: {  // Valid frame, junk, valid frame: mid-stream desync.
      std::vector<uint8_t> spliced = bytes;
      const size_t junk = 1 + rng.NextBounded(9);
      for (size_t i = 0; i < junk; ++i) {
        spliced.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
      }
      const std::vector<uint8_t> tail = ValidBaseFrame(rng);
      spliced.insert(spliced.end(), tail.begin(), tail.end());
      bytes = spliced;
      break;
    }
    default: {  // Type-byte confusion in an otherwise valid frame.
      if (bytes.size() > kFrameHeaderSize) {
        bytes[kFrameHeaderSize] =
            static_cast<uint8_t>(rng.NextBounded(256));
      }
      break;
    }
  }
  return bytes;
}

struct FuzzTarget {
  std::string name;
  std::function<Result<int>()> connect;
};

/// The recovery probe: a fresh, well-formed session must get a correct
/// pong within the timeout, whatever the previous session did.
void ExpectServesWellFormedClient(const FuzzTarget& target) {
  auto fd = target.connect();
  ASSERT_TRUE(fd.ok()) << target.name << ": "
                       << fd.status().ToString();
  SetRecvTimeout(fd.value(), 5000);
  std::vector<uint8_t> frame;
  EncodeEmptyMessage(MessageType::kPing, frame);
  ASSERT_TRUE(
      WriteAll(fd.value(), Span<const uint8_t>(frame.data(), frame.size()))
          .ok())
      << target.name;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(fd.value(), payload).ok())
      << target.name << ": daemon did not answer a well-formed ping";
  auto type =
      PeekMessageType(Span<const uint8_t>(payload.data(), payload.size()));
  ASSERT_TRUE(type.ok()) << target.name;
  EXPECT_EQ(type.value(), MessageType::kPong) << target.name;
  CloseSocket(fd.value());
}

void FuzzOneTransport(const FuzzTarget& target, Server& server,
                      uint64_t seed, int iterations) {
  Rng rng(seed);
  int skipped = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::vector<uint8_t> bytes = MutatedFrames(rng);
    if (ContainsValidShutdown(bytes)) {
      ++skipped;  // Stopping the daemon would be obeying, not surviving.
      continue;
    }
    auto fd = target.connect();
    ASSERT_TRUE(fd.ok()) << target.name << " iteration " << i << ": "
                         << fd.status().ToString();
    SetRecvTimeout(fd.value(), 100);
    // The daemon may hang up mid-write on a protocol error; that is a
    // legal outcome, not a test failure.
    (void)WriteAll(fd.value(),
                   Span<const uint8_t>(bytes.data(), bytes.size()));
    // Drain whatever it answered, best effort: valid mutations get real
    // replies, violations get one error frame and EOF, incomplete
    // frames get silence (the server is waiting, we just leave).
    std::vector<uint8_t> payload;
    for (int replies = 0; replies < 4; ++replies) {
      if (!ReadFramePayload(fd.value(), payload).ok()) break;
    }
    CloseSocket(fd.value());
    ASSERT_TRUE(server.running())
        << target.name << ": daemon died at iteration " << i;
    if (i % 15 == 0) ExpectServesWellFormedClient(target);
  }
  // The mutation space must actually exercise the parser, not trip the
  // shutdown guard every time.
  EXPECT_LT(skipped, iterations / 2) << target.name;
  ExpectServesWellFormedClient(target);
}

TEST(ServerFuzzTest, MutatedFramesNeverKillTheDaemonOnEitherTransport) {
  ServerConfig config;
  config.socket_path = FreshSocketPath();
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);
  const HostPort tcp{"127.0.0.1", server.tcp_port()};

  const FuzzTarget over_unix{
      "unix", [&] { return ConnectUnix(config.socket_path); }};
  const FuzzTarget over_tcp{"tcp", [&] { return ConnectTcp(tcp); }};

  FuzzOneTransport(over_unix, server, /*seed=*/0x5eed0001, 120);
  FuzzOneTransport(over_tcp, server, /*seed=*/0x5eed0002, 120);

  // After 240 hostile sessions, normal service still works end to end.
  auto client = Client::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  const std::vector<uint64_t> keys = {1, 2, 3, 2, 1, 1};
  auto acked = client.value().Ingest(keys);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  std::vector<double> estimates;
  const std::vector<uint64_t> queries = {1, 2, 3};
  ASSERT_TRUE(client.value().Query(queries, estimates).ok());
  EXPECT_EQ(estimates[0], 3.0);
  EXPECT_EQ(estimates[1], 2.0);
  EXPECT_EQ(estimates[2], 1.0);
  server.RequestShutdown();
}

TEST(ServerFuzzTest, ChunkedWellFormedFramesAnswerNormally) {
  // A torn but ultimately well-formed stream is not a violation: a query
  // dribbled one byte at a time must answer exactly like one write.
  ServerConfig config;
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());
  const HostPort tcp{"127.0.0.1", server.tcp_port()};

  auto fd = ConnectTcp(tcp);
  ASSERT_TRUE(fd.ok());
  SetRecvTimeout(fd.value(), 5000);
  std::vector<uint8_t> frame;
  const std::vector<uint64_t> keys = {42, 7};
  EncodeKeyRequest(MessageType::kQuery,
                   Span<const uint64_t>(keys.data(), keys.size()), frame);
  for (uint8_t byte : frame) {
    ASSERT_TRUE(WriteAll(fd.value(), Span<const uint8_t>(&byte, 1)).ok());
  }
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(fd.value(), payload).ok());
  std::vector<double> estimates;
  ASSERT_TRUE(
      DecodeEstimatesResponse(
          Span<const uint8_t>(payload.data(), payload.size()), estimates)
          .ok());
  ASSERT_EQ(estimates.size(), 2u);
  EXPECT_EQ(estimates[0], 0.0);
  EXPECT_EQ(estimates[1], 0.0);
  CloseSocket(fd.value());
  server.RequestShutdown();
}

}  // namespace
}  // namespace opthash::server
