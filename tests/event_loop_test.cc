// EventLoop unit tests, below the daemon: a loop with a test handler on
// socketpair(2) ends, covering frame reassembly across arbitrary write
// boundaries, pipelined frames, close-on-handler-request, the oversized
// length-prefix error path, the write-backpressure cap, idle reaping and
// lifecycle accounting. The serving daemon's protocol behavior on top of
// the loop lives in server_test / server_fuzz_test / server_stress_test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/event_loop.h"
#include "server/protocol.h"
#include "server/socket_io.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace opthash::server {
namespace {

// One connected (client_fd, server_fd) pair; the server end is what the
// loop adopts.
struct LocalPair {
  int client_fd = -1;
  int server_fd = -1;
};

LocalPair MustPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {fds[0], fds[1]};
}

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::vector<uint8_t> Frame(const std::string& payload) {
  std::vector<uint8_t> frame(kFrameHeaderSize + payload.size());
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::memcpy(frame.data(), &length, sizeof(length));
  std::memcpy(frame.data() + kFrameHeaderSize, payload.data(),
              payload.size());
  return frame;
}

// Echoes the payload back as one frame; "quit" also ends the session.
EventLoop::FrameHandler EchoHandler() {
  return [](EventLoop::SessionState&, Span<const uint8_t> payload,
            std::vector<uint8_t>& response) {
    const std::string text(reinterpret_cast<const char*>(payload.data()),
                           payload.size());
    const std::vector<uint8_t> frame = Frame(text);
    response.assign(frame.begin(), frame.end());
    return text != "quit";
  };
}

EventLoop::SessionFactory NullFactory() {
  return [] { return std::make_unique<EventLoop::SessionState>(); };
}

bool WaitFor(const std::function<bool()>& done, int deadline_millis) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_millis);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

EventLoopConfig FastConfig() {
  EventLoopConfig config;
  config.poll_millis = 10;
  return config;
}

TEST(EventLoopTest, ReassemblesFramesAcrossArbitraryWriteBoundaries) {
  EventLoop loop(FastConfig(), NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());
  LocalPair pair = MustPair();
  SetRecvTimeout(pair.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(pair.server_fd).ok());

  // Byte-by-byte: the loop must buffer the partial frame across many
  // readiness events before it can answer.
  const std::vector<uint8_t> frame = Frame("dripfeed");
  for (uint8_t byte : frame) {
    ASSERT_TRUE(WriteAll(pair.client_fd, Span<const uint8_t>(&byte, 1)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(pair.client_fd, payload).ok());
  EXPECT_EQ(std::string(payload.begin(), payload.end()), "dripfeed");

  // Pipelined: many frames in one write come back in order.
  std::vector<uint8_t> burst;
  for (int i = 0; i < 50; ++i) {
    const std::vector<uint8_t> one = Frame("msg" + std::to_string(i));
    burst.insert(burst.end(), one.begin(), one.end());
  }
  ASSERT_TRUE(
      WriteAll(pair.client_fd,
               Span<const uint8_t>(burst.data(), burst.size()))
          .ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ReadFramePayload(pair.client_fd, payload).ok());
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              "msg" + std::to_string(i));
  }
  CloseSocket(pair.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, HandlerReturningFalseClosesAfterTheReply) {
  EventLoop loop(FastConfig(), NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());
  LocalPair pair = MustPair();
  SetRecvTimeout(pair.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(pair.server_fd).ok());

  const std::vector<uint8_t> quit = Frame("quit");
  ASSERT_TRUE(
      WriteAll(pair.client_fd, Span<const uint8_t>(quit.data(), quit.size()))
          .ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(pair.client_fd, payload).ok());
  EXPECT_EQ(std::string(payload.begin(), payload.end()), "quit");
  // The reply arrives first, the hangup second.
  EXPECT_EQ(ReadFramePayload(pair.client_fd, payload).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(WaitFor([&] { return loop.connections() == 0; }, 2000));
  CloseSocket(pair.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, OversizedLengthPrefixAnswersErrorThenHangsUp) {
  EventLoop loop(FastConfig(), NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());
  LocalPair pair = MustPair();
  SetRecvTimeout(pair.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(pair.server_fd).ok());

  const uint8_t huge_header[] = {0xFF, 0xFF, 0xFF, 0x7F, 1};
  ASSERT_TRUE(
      WriteAll(pair.client_fd, Span<const uint8_t>(huge_header, 5)).ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(pair.client_fd, payload).ok());
  Status remote;
  ASSERT_TRUE(DecodeErrorResponse(
                  Span<const uint8_t>(payload.data(), payload.size()), remote)
                  .ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFramePayload(pair.client_fd, payload).code(),
            StatusCode::kNotFound);
  CloseSocket(pair.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, PeerClosingMidFrameGetsTruncationError) {
  EventLoop loop(FastConfig(), NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());
  LocalPair pair = MustPair();
  SetRecvTimeout(pair.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(pair.server_fd).ok());

  // Header promises 100 bytes; send 7 and close our write side. The
  // half-closed socket can still read the error verdict.
  const uint8_t partial[] = {100, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(
      WriteAll(pair.client_fd, Span<const uint8_t>(partial, 11)).ok());
  ::shutdown(pair.client_fd, SHUT_WR);
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(pair.client_fd, payload).ok());
  Status remote;
  ASSERT_TRUE(DecodeErrorResponse(
                  Span<const uint8_t>(payload.data(), payload.size()), remote)
                  .ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFramePayload(pair.client_fd, payload).code(),
            StatusCode::kNotFound);
  CloseSocket(pair.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, WriteBackpressureCapCutsTheSlowReaderLoose) {
  // An amplifying handler (tiny request, megabyte reply) with a reader
  // that never reads: pending replies blow past the cap in one parse
  // batch and the connection is closed, while a second, polite
  // connection on the same loop keeps getting answers.
  EventLoopConfig config = FastConfig();
  config.max_write_buffer = kMaxFramePayload + 64;  // The minimum cap.
  auto amplify = [](EventLoop::SessionState&, Span<const uint8_t>,
                    std::vector<uint8_t>& response) {
    const std::vector<uint8_t> frame =
        Frame(std::string(1u << 20, 'x'));
    response.assign(frame.begin(), frame.end());
    return true;
  };
  EventLoop loop(config, NullFactory(), amplify);
  ASSERT_TRUE(loop.Start().ok());

  LocalPair slow = MustPair();
  LocalPair polite = MustPair();
  SetRecvTimeout(polite.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(slow.server_fd).ok());
  ASSERT_TRUE(loop.Adopt(polite.server_fd).ok());

  // Ten tiny requests arrive in one chunk; ten 1 MiB replies exceed the
  // ~4 MiB cap before the slow reader has read a byte.
  std::vector<uint8_t> burst;
  for (int i = 0; i < 10; ++i) {
    const std::vector<uint8_t> one = Frame("go");
    burst.insert(burst.end(), one.begin(), one.end());
  }
  ASSERT_TRUE(WriteAll(slow.client_fd,
                       Span<const uint8_t>(burst.data(), burst.size()))
                  .ok());
  EXPECT_TRUE(WaitFor([&] { return loop.closed_backpressure() >= 1; }, 5000));
  EXPECT_TRUE(WaitFor([&] { return loop.connections() == 1; }, 2000));

  const std::vector<uint8_t> ping = Frame("hi");
  ASSERT_TRUE(WriteAll(polite.client_fd,
                       Span<const uint8_t>(ping.data(), ping.size()))
                  .ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(polite.client_fd, payload).ok());
  EXPECT_EQ(payload.size(), 1u << 20);

  CloseSocket(slow.client_fd);
  CloseSocket(polite.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, IdleConnectionsReapedActiveOnesSurvive) {
  EventLoopConfig config = FastConfig();
  config.idle_timeout_seconds = 0.2;
  EventLoop loop(config, NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());

  LocalPair idle = MustPair();
  LocalPair active = MustPair();
  SetRecvTimeout(idle.client_fd, 5000);
  SetRecvTimeout(active.client_fd, 5000);
  ASSERT_TRUE(loop.Adopt(idle.server_fd).ok());
  ASSERT_TRUE(loop.Adopt(active.server_fd).ok());

  // Keep one side chatty well past the timeout; the silent one must go.
  const std::vector<uint8_t> ping = Frame("tick");
  std::vector<uint8_t> payload;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(WriteAll(active.client_fd,
                         Span<const uint8_t>(ping.data(), ping.size()))
                    .ok());
    ASSERT_TRUE(ReadFramePayload(active.client_fd, payload).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(loop.closed_idle(), 1u);
  EXPECT_EQ(loop.connections(), 1u);
  // The reaped end reads EOF.
  EXPECT_EQ(ReadFramePayload(idle.client_fd, payload).code(),
            StatusCode::kNotFound);

  CloseSocket(idle.client_fd);
  CloseSocket(active.client_fd);
  loop.Stop();
}

TEST(EventLoopTest, LifecycleAccountingAndAdoptAfterStop) {
  EventLoop loop(FastConfig(), NullFactory(), EchoHandler());
  ASSERT_TRUE(loop.Start().ok());
  LocalPair a = MustPair();
  LocalPair b = MustPair();
  ASSERT_TRUE(loop.Adopt(a.server_fd).ok());
  ASSERT_TRUE(loop.Adopt(b.server_fd).ok());
  EXPECT_EQ(loop.connections(), 2u);

  CloseSocket(a.client_fd);
  EXPECT_TRUE(WaitFor([&] { return loop.connections() == 1; }, 2000));
  loop.Stop();
  EXPECT_EQ(loop.connections(), 0u);

  LocalPair late = MustPair();
  const Status adopted = loop.Adopt(late.server_fd);
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.code(), StatusCode::kFailedPrecondition);
  CloseSocket(late.server_fd);
  CloseSocket(late.client_fd);
  CloseSocket(b.client_fd);
}

TEST(EventLoopTest, ConfigValidationRejectsUnservableCaps) {
  EventLoopConfig config;
  config.max_write_buffer = 1024;  // Cannot hold even one full reply.
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = EventLoopConfig{};
  config.poll_millis = 0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = EventLoopConfig{};
  config.write_high_watermark = config.max_write_buffer + 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = EventLoopConfig{};
  config.idle_timeout_seconds = -1.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(EventLoopConfig{}.Validate().ok());
}

}  // namespace
}  // namespace opthash::server
