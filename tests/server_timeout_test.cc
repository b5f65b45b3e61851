// Idle-timeout and slow-reader behavior of the serving daemon: sessions
// with no protocol progress are reaped at --idle-timeout while active
// ones on the same loops keep answering, and a client that stops
// reading mid-reply is disconnected without stalling anybody else. The
// loop-level backpressure cap itself is unit-tested in
// event_loop_test.cc; these tests prove the daemon wiring end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

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
  return "/tmp/opthash_idle_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::unique_ptr<ServedModel> FreshCms() {
  FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = 1024;
  spec.depth = 4;
  spec.seed = 5;
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

TEST(ServerTimeoutTest, IdleSessionReapedWhileActiveOneSurvives) {
  ServerConfig config;
  config.socket_path = FreshSocketPath();
  config.accept_poll_millis = 20;
  config.idle_timeout_seconds = 0.3;
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());

  // The idle session: connects, says nothing, must be cut loose.
  auto idle_fd = ConnectUnix(config.socket_path);
  ASSERT_TRUE(idle_fd.ok());
  SetRecvTimeout(idle_fd.value(), 5000);

  // The active session: pings on a cadence well inside the timeout for
  // several timeout-lengths — activity, not connection age, is what
  // keeps a session alive.
  auto active = Client::Connect(config.socket_path);
  ASSERT_TRUE(active.ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(active.value().Ping().ok()) << "tick " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // ~1.2s elapsed against a 0.3s timeout: the silent session is gone
  // (EOF on its end, counted by the daemon), the chatty one is not.
  std::vector<uint8_t> payload;
  EXPECT_EQ(ReadFramePayload(idle_fd.value(), payload).code(),
            StatusCode::kNotFound)
      << "idle session was never reaped";
  EXPECT_GE(server.sessions_closed_idle(), 1u);
  EXPECT_TRUE(active.value().Ping().ok());
  CloseSocket(idle_fd.value());
  server.RequestShutdown();
}

TEST(ServerTimeoutTest, ZeroTimeoutMeansSessionsLiveForever) {
  ServerConfig config;
  config.socket_path = FreshSocketPath();
  config.accept_poll_millis = 20;  // idle_timeout_seconds stays 0.
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());

  auto idle_fd = ConnectUnix(config.socket_path);
  ASSERT_TRUE(idle_fd.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(server.sessions_closed_idle(), 0u);
  EXPECT_EQ(server.connections(), 1u);

  // The silent session is still perfectly serviceable.
  SetRecvTimeout(idle_fd.value(), 5000);
  std::vector<uint8_t> ping;
  EncodeEmptyMessage(MessageType::kPing, ping);
  ASSERT_TRUE(WriteAll(idle_fd.value(),
                       Span<const uint8_t>(ping.data(), ping.size()))
                  .ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFramePayload(idle_fd.value(), payload).ok());
  CloseSocket(idle_fd.value());
  server.RequestShutdown();
}

TEST(ServerTimeoutTest, SlowReaderDisconnectedWithoutStallingOthers) {
  // A client asks a megabytes-sized question and then refuses to read
  // the answer. The daemon buffers, stops making progress on that
  // session, and the idle timeout guillotines it — while another client
  // on the same loops keeps round-tripping the whole time.
  ServerConfig config;
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  config.idle_timeout_seconds = 0.4;
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());
  const HostPort tcp{"127.0.0.1", server.tcp_port()};
  const std::string target =
      "127.0.0.1:" + std::to_string(server.tcp_port());

  // The slow reader sends one maximal query (a ~4 MB reply) and stops.
  auto slow_fd = ConnectTcp(tcp);
  ASSERT_TRUE(slow_fd.ok());
  std::vector<uint64_t> keys(kMaxKeysPerFrame);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(i);
  }
  std::vector<uint8_t> request;
  EncodeKeyRequest(MessageType::kQuery,
                   Span<const uint64_t>(keys.data(), keys.size()), request);
  ASSERT_TRUE(
      WriteAll(slow_fd.value(),
               Span<const uint8_t>(request.data(), request.size()))
          .ok());

  // Meanwhile a well-behaved client must never stall: it keeps
  // round-tripping until the daemon counts the slow reader as cut (a
  // blocked loop would hang a round trip here). The schedule follows
  // that counter, not a fixed tick count: the idle clock starts only
  // once the ~4 MB reply is built and parked, and under sanitizers
  // building it alone can outlast any fixed schedule. The deadline only
  // bounds a daemon that never disconnects the reader.
  auto active = Client::Connect(target);
  ASSERT_TRUE(active.ok());
  std::vector<double> out;
  const std::vector<uint64_t> one_key = {7};
  const auto disconnected = [&server] {
    return server.sessions_closed_idle() +
           server.sessions_closed_backpressure();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int tick = 0;
  do {
    ASSERT_TRUE(active.value().Query(one_key, out).ok()) << "tick " << tick;
    ++tick;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  } while (disconnected() < 1 && std::chrono::steady_clock::now() < deadline);

  // The slow reader is disconnected (reset once its socket vanishes
  // server-side) and counted. Reading our end now would drain what the
  // kernel buffered and then report the cut — but never a full, clean
  // 4 MB reply.
  EXPECT_GE(disconnected(), 1u) << "slow reader was never disconnected";
  EXPECT_TRUE(active.value().Ping().ok());
  CloseSocket(slow_fd.value());
  server.RequestShutdown();
}

}  // namespace
}  // namespace opthash::server
