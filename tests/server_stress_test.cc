// Multi-client stress over the TCP serving plane: 256 concurrent
// connections multiplexed onto a per-core event-loop pool (thread count
// must stay near the core count, not the connection count), a mixed
// query/ingest/stats workload racing clients that die mid-frame, file
// descriptors settling back to baseline afterwards, and the connection
// limit rejecting client N+1 with a clean error frame instead of a hang.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "server/tcp_listener.h"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace opthash::server {
namespace {

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::unique_ptr<ServedModel> FreshCms(size_t width, uint64_t seed) {
  FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = width;
  spec.depth = 4;
  spec.seed = seed;
  auto model = CreateServedSketch(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

#ifdef __linux__
size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count > 0 ? count - 3 : 0;  // ".", "..", the opendir fd itself.
}

size_t CountThreads() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  size_t threads = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = static_cast<size_t>(std::strtoul(line + 8, nullptr, 10));
      break;
    }
  }
  std::fclose(file);
  return threads;
}
#endif  // __linux__

bool WaitFor(const std::function<bool()>& done, int deadline_millis) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_millis);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

TEST(ServerStressTest, TwoHundredFiftySixConcurrentTcpClients) {
#ifdef __linux__
  const size_t fds_before = CountOpenFds();
#endif
  ServerConfig config;
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  config.max_connections = 512;
  Server server(config, FreshCms(512, 3));
#ifdef __linux__
  const size_t threads_before = CountThreads();
#endif
  ASSERT_TRUE(server.Start().ok());
  const HostPort tcp{"127.0.0.1", server.tcp_port()};

  constexpr size_t kClients = 256;
  std::vector<int> fds;
  fds.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    auto fd = ConnectTcp(tcp);
    ASSERT_TRUE(fd.ok()) << "client " << i << ": "
                         << fd.status().ToString();
    SetRecvTimeout(fd.value(), 10000);
    fds.push_back(fd.value());
  }

#ifdef __linux__
  // The serving plane must not have spawned a thread per connection:
  // with 256 live sessions the daemon grew by roughly one loop per core
  // plus the accept and rotation threads.
  unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) cores = 1;
  const size_t threads_now = CountThreads();
  ASSERT_GT(threads_now, 0u);
  EXPECT_LE(threads_now - threads_before, cores + 8)
      << "thread-per-session is back";
  EXPECT_LT(threads_now - threads_before, kClients / 2);
#endif

  // All sessions adopted and counted.
  EXPECT_TRUE(WaitFor([&] { return server.connections() == kClients; },
                      10000))
      << server.connections() << " of " << kClients << " adopted";

  // Write all pings first, then collect all pongs: every one of the 256
  // multiplexed sessions must answer.
  std::vector<uint8_t> ping;
  EncodeEmptyMessage(MessageType::kPing, ping);
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(
        WriteAll(fds[i], Span<const uint8_t>(ping.data(), ping.size()))
            .ok())
        << "client " << i;
  }
  std::vector<uint8_t> payload;
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(ReadFramePayload(fds[i], payload).ok()) << "client " << i;
    auto type = PeekMessageType(
        Span<const uint8_t>(payload.data(), payload.size()));
    ASSERT_TRUE(type.ok());
    EXPECT_EQ(type.value(), MessageType::kPong) << "client " << i;
  }

  auto stats = server.StatsNow();
  EXPECT_GE(stats.sessions_accepted, kClients);

  for (int fd : fds) CloseSocket(fd);
  EXPECT_TRUE(WaitFor([&] { return server.connections() == 0; }, 10000))
      << server.connections() << " sessions still alive after close";
  server.RequestShutdown();

#ifdef __linux__
  // Every server-side descriptor must be returned: compare against the
  // pre-server baseline once the daemon is fully down.
  EXPECT_TRUE(WaitFor([&] { return CountOpenFds() <= fds_before; }, 10000))
      << "fd leak: " << CountOpenFds() << " open, baseline " << fds_before;
#endif
}

TEST(ServerStressTest, MixedWorkloadSurvivesMidFrameKills) {
  // Writers, readers, stats pollers and deliberately dying clients share
  // the daemon. Counts must stay exact: a connection killed mid-frame
  // contributes nothing, a completed ingest request contributes all of
  // its block, and a single-key estimate in an ample sketch equals the
  // total ingested for that key.
  ServerConfig config;
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  Server server(config, FreshCms(4096, 17));
  ASSERT_TRUE(server.Start().ok());
  const HostPort tcp{"127.0.0.1", server.tcp_port()};
  const std::string target =
      "127.0.0.1:" + std::to_string(server.tcp_port());

  constexpr uint64_t kKey = 99991;
  constexpr size_t kBlock = 50;
  constexpr size_t kRequestsPerWriter = 40;
  constexpr size_t kWriters = 4;
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWriters; ++w) {
    workers.emplace_back([&] {
      auto client = Client::Connect(target);
      ASSERT_TRUE(client.ok());
      const std::vector<uint64_t> block(kBlock, kKey);
      for (size_t r = 0; r < kRequestsPerWriter; ++r) {
        auto acked = client.value().Ingest(block);
        ASSERT_TRUE(acked.ok()) << acked.status().ToString();
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    workers.emplace_back([&] {
      auto client = Client::Connect(target);
      ASSERT_TRUE(client.ok());
      std::vector<double> out;
      const std::vector<uint64_t> one_key = {kKey};
      double last = 0.0;
      while (!stop.load()) {
        ASSERT_TRUE(client.value().Query(one_key, out).ok());
        EXPECT_GE(out[0], last) << "counts went backwards";
        last = out[0];
      }
    });
  }
  workers.emplace_back([&] {
    auto client = Client::Connect(target);
    ASSERT_TRUE(client.ok());
    while (!stop.load()) {
      auto stats = client.value().Stats();
      ASSERT_TRUE(stats.ok());
    }
  });
  // The killers: half-written ingest frames for the same key, then an
  // abrupt close. None of these may land in the counts.
  for (int k = 0; k < 2; ++k) {
    workers.emplace_back([&, k] {
      Rng rng(static_cast<uint64_t>(k) + 777);
      std::vector<uint8_t> frame;
      const std::vector<uint64_t> block(kBlock, kKey);
      for (int i = 0; i < 20; ++i) {
        auto fd = ConnectTcp(tcp);
        if (!fd.ok()) continue;  // Accept backlog raced shutdown? Retry.
        EncodeKeyRequest(MessageType::kIngest,
                         Span<const uint64_t>(block.data(), block.size()),
                         frame);
        const size_t cut = 1 + rng.NextBounded(frame.size() - 1);
        (void)WriteAll(fd.value(),
                       Span<const uint8_t>(frame.data(), cut));
        CloseSocket(fd.value());
      }
    });
  }

  for (size_t w = 0; w < kWriters; ++w) workers[w].join();
  stop.store(true);
  for (size_t w = kWriters; w < workers.size(); ++w) workers[w].join();

  auto client = Client::Connect(target);
  ASSERT_TRUE(client.ok());
  std::vector<double> out;
  const std::vector<uint64_t> one_key = {kKey};
  ASSERT_TRUE(client.value().Query(one_key, out).ok());
  EXPECT_EQ(out[0],
            static_cast<double>(kWriters * kRequestsPerWriter * kBlock));
  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().ingest_requests, kWriters * kRequestsPerWriter);
  EXPECT_EQ(stats.value().items_ingested,
            kWriters * kRequestsPerWriter * kBlock);
  server.RequestShutdown();
}

TEST(ServerStressTest, ConnectionLimitRejectsCleanlyAndRecovers) {
  ServerConfig config;
  config.listen_address = "127.0.0.1:0";
  config.accept_poll_millis = 20;
  config.max_connections = 8;
  Server server(config, FreshCms(512, 3));
  ASSERT_TRUE(server.Start().ok());
  const HostPort tcp{"127.0.0.1", server.tcp_port()};

  std::vector<uint8_t> ping;
  EncodeEmptyMessage(MessageType::kPing, ping);
  std::vector<uint8_t> payload;

  // Fill the limit; each session proves it is live with a pong.
  std::vector<int> fds;
  for (size_t i = 0; i < 8; ++i) {
    auto fd = ConnectTcp(tcp);
    ASSERT_TRUE(fd.ok());
    SetRecvTimeout(fd.value(), 5000);
    ASSERT_TRUE(
        WriteAll(fd.value(), Span<const uint8_t>(ping.data(), ping.size()))
            .ok());
    ASSERT_TRUE(ReadFramePayload(fd.value(), payload).ok());
    fds.push_back(fd.value());
  }

  // Client N+1: accepted at the TCP level, answered with one clean
  // FailedPrecondition error frame, then hung up — never a hang.
  {
    auto fd = ConnectTcp(tcp);
    ASSERT_TRUE(fd.ok());
    SetRecvTimeout(fd.value(), 5000);
    ASSERT_TRUE(ReadFramePayload(fd.value(), payload).ok())
        << "over-limit client was left hanging";
    Status remote;
    ASSERT_TRUE(
        DecodeErrorResponse(
            Span<const uint8_t>(payload.data(), payload.size()), remote)
            .ok());
    EXPECT_EQ(remote.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(remote.message().find("connection limit"), std::string::npos)
        << remote.message();
    EXPECT_EQ(ReadFramePayload(fd.value(), payload).code(),
              StatusCode::kNotFound);
    CloseSocket(fd.value());
  }
  EXPECT_GE(server.sessions_rejected(), 1u);

  // Releasing one slot lets the next client in (the loop reaps the
  // closed session at poll cadence, so retry briefly).
  CloseSocket(fds.back());
  fds.pop_back();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool admitted = false;
  while (std::chrono::steady_clock::now() < deadline && !admitted) {
    auto fd = ConnectTcp(tcp);
    ASSERT_TRUE(fd.ok());
    SetRecvTimeout(fd.value(), 2000);
    ASSERT_TRUE(
        WriteAll(fd.value(), Span<const uint8_t>(ping.data(), ping.size()))
            .ok());
    if (ReadFramePayload(fd.value(), payload).ok()) {
      auto type = PeekMessageType(
          Span<const uint8_t>(payload.data(), payload.size()));
      admitted = type.ok() && type.value() == MessageType::kPong;
    }
    CloseSocket(fd.value());
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(admitted) << "freed slot was never granted to a new client";

  for (int fd : fds) CloseSocket(fd);
  server.RequestShutdown();
}

}  // namespace
}  // namespace opthash::server
