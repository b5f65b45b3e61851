// In-process serving daemon tests: a real Server on a real Unix-domain
// socket, driven through the real Client — ingest/query equivalence with
// offline sketches, served-bundle answers identical to the offline
// estimator, stats, read-only mmap serving, malformed-frame handling at
// the socket layer, checkpoint/resume equivalence, and a
// snapshot-under-load consistency test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "artifact_test_util.h"
#include "common/random.h"
#include "core/opt_hash_estimator.h"
#include "io/model_io.h"
#include "io/sketch_snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "server/tcp_listener.h"
#include "sketch/count_min_sketch.h"
#include "sketch/kernels/simd_dispatch.h"
#include "sketch/space_saving.h"
#include "sketch/top_k.h"

#include <unistd.h>

namespace opthash::server {
namespace {

// Socket paths must stay under sun_path's ~107 bytes, so they live in
// /tmp directly rather than under the (possibly deep) build tree.
std::string FreshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/opthash_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string FreshDir(const std::string& stem) {
  // Pid-qualified: stale directories from a previous test run must not
  // leak rotated snapshots into this one.
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/server_" + stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::vector<uint64_t> ZipfishKeys(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto r = static_cast<uint64_t>(rng.NextUint64());
    keys.push_back(r % ((r % 5 == 0) ? 5000 : 60));
  }
  return keys;
}

std::unique_ptr<ServedModel> FreshCms(size_t width = 512, size_t depth = 4,
                                      uint64_t seed = 3) {
  FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = width;
  spec.depth = depth;
  spec.seed = seed;
  auto model = CreateServedSketch(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

class RunningServer {
 public:
  explicit RunningServer(std::unique_ptr<ServedModel> model,
                         RotationConfig rotation = {},
                         stream::ShardedIngestConfig ingest = {}) {
    config_.socket_path = FreshSocketPath();
    config_.rotation = std::move(rotation);
    config_.ingest = ingest;
    server_ = std::make_unique<Server>(config_, std::move(model));
  }

  ~RunningServer() { server_->RequestShutdown(); }

  Status Start() { return server_->Start(); }
  const std::string& socket() const { return config_.socket_path; }
  Server& server() { return *server_; }

  Client MustConnect() {
    auto client = Client::Connect(socket());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

 private:
  ServerConfig config_;
  std::unique_ptr<Server> server_;
};

// sun_path holds 108 bytes on Linux, its terminating NUL included, so a
// 108-byte path does not fit; neither does an empty one. Both are
// rejected before any socket is made or file unlinked.
TEST(ServerTest, UnixSocketPathsOutsideSunPathAreRejected) {
  for (const std::string& path : {std::string(), std::string(108, 'p')}) {
    const Result<int> listened = ListenUnix(path);
    ASSERT_FALSE(listened.ok());
    EXPECT_EQ(listened.status().code(), StatusCode::kInvalidArgument);
    const Result<int> connected = ConnectUnix(path);
    ASSERT_FALSE(connected.ok());
    EXPECT_EQ(connected.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServerTest, PingAndStatsOnFreshServer) {
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();
  EXPECT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().items_ingested, 0u);
  EXPECT_EQ(stats.value().snapshots_written, 0u);
  EXPECT_LT(stats.value().snapshot_age_seconds, 0.0);
  EXPECT_GE(stats.value().uptime_seconds, 0.0);
  EXPECT_GE(stats.value().sessions_accepted, 1u);
}

TEST(ServerTest, ServedAnswersMatchOfflineSketchExactly) {
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  const std::vector<uint64_t> keys = ZipfishKeys(20000, 11);
  auto acked = client.Ingest(keys);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(acked.value(), keys.size());

  // The offline reference: the identical sketch fed the identical stream.
  sketch::CountMinSketch reference(512, 4, 3);
  reference.UpdateBatch(keys);

  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 200; ++key) queries.push_back(key);
  std::vector<double> served;
  ASSERT_TRUE(client.Query(queries, served).ok());
  ASSERT_EQ(served.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(served[i], static_cast<double>(reference.Estimate(queries[i])))
        << "key " << queries[i];
  }

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().items_ingested, keys.size());
  EXPECT_EQ(stats.value().model_total_items, keys.size());
  EXPECT_EQ(stats.value().queries_served, queries.size());
  EXPECT_EQ(stats.value().query_requests, 1u);
  EXPECT_GT(stats.value().query_p99_micros, 0.0);
}

// A small bundle over 150 prefix ids (100..249), built exactly like the
// train verb: prefix features come from the bundle's own featurizer, so
// classifier and featurizer dimensions agree (what every real bundle
// guarantees).
io::ModelBundle SmallBundle(core::ClassifierKind classifier) {
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(32);
  std::vector<std::pair<std::string, double>> corpus;
  for (size_t i = 0; i < 150; ++i) {
    corpus.push_back({"item word" + std::to_string(i % 11),
                      (i % 7 == 0) ? 90.0 + i : 2.0});
  }
  bundle.featurizer.Fit(corpus);
  core::OptHashConfig config;
  config.total_buckets = 200;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = classifier;
  config.rf.num_trees = 10;
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < 150; ++i) {
    prefix.push_back({.id = 100 + i,
                      .frequency = corpus[i].second,
                      .features = bundle.featurizer.Featurize(
                          corpus[i].first)});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  OPTHASH_CHECK(trained.ok());
  bundle.estimator = std::move(trained).value();
  return bundle;
}

TEST(ServerTest, ServedBundleMatchesOfflineEstimator) {
  // Train a small bundle, serve it, and require byte-identical answers to
  // the in-process estimator queried the way the daemon queries it
  // (key-only = blank-text records through BundleQueryEngine).
  const io::ModelBundle bundle = SmallBundle(core::ClassifierKind::kCart);

  const std::string path = ::testing::TempDir() + "/served_bundle.bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());

  auto opened = OpenServedModel(path, /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.value().mmap_used);
  RunningServer running(std::move(opened.value().model));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  std::vector<uint64_t> queries;
  for (uint64_t id = 90; id < 280; ++id) queries.push_back(id);
  std::vector<double> served;
  ASSERT_TRUE(client.Query(queries, served).ok());

  io::BundleQueryEngine engine(bundle);
  std::vector<stream::TraceRecord> records(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) records[i].id = queries[i];
  std::vector<double> offline(queries.size());
  engine.EstimateBlock(
      Span<const stream::TraceRecord>(records.data(), records.size()),
      Span<double>(offline.data(), offline.size()));
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(served[i], offline[i]) << "id " << queries[i];
  }
}

// Served key-only answers against an independent reference: the
// estimator's own scalar query with the blank payload's features, key by
// key — not the BundleQueryEngine the server itself calls.
class ServedBundleBlankPayload
    : public ::testing::TestWithParam<core::ClassifierKind> {};

TEST_P(ServedBundleBlankPayload, KeyOnlyAnswersMatchScalarBlankQuery) {
  const io::ModelBundle bundle = SmallBundle(GetParam());

  const std::string path = ::testing::TempDir() + "/served_blank_" +
                           core::ClassifierKindName(GetParam()) + ".bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());
  auto opened = OpenServedModel(path, /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RunningServer running(std::move(opened.value().model));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  const std::vector<double> blank = bundle.featurizer.Featurize("");
  // Two requests on one session: the second reuses the session's engine.
  for (const uint64_t first : {90u, 185u}) {
    std::vector<uint64_t> queries;
    for (uint64_t id = first; id < first + 95; ++id) queries.push_back(id);
    std::vector<double> served;
    ASSERT_TRUE(client.Query(queries, served).ok());
    ASSERT_EQ(served.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(served[i], bundle.estimator->Estimate({queries[i], &blank}))
          << "id " << queries[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classifiers, ServedBundleBlankPayload,
    ::testing::Values(core::ClassifierKind::kRandomForest,
                      core::ClassifierKind::kCart,
                      core::ClassifierKind::kLogisticRegression,
                      core::ClassifierKind::kNone),
    [](const ::testing::TestParamInfo<core::ClassifierKind>& info) {
      return std::string(core::ClassifierKindName(info.param));
    });

TEST(ServerTest, MappedBundleServesReadOnly) {
  // Reuse the binary bundle from the previous test's path layout.
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(16);
  bundle.featurizer.Fit({{"a", 3.0}});
  core::OptHashConfig config;
  config.total_buckets = 80;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < 40; ++i) {
    prefix.push_back({.id = i, .frequency = 1.0 + i, .features = {0.0}});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(trained.ok());
  bundle.estimator = std::move(trained).value();
  const std::string path = ::testing::TempDir() + "/served_mapped.bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());

  auto opened = OpenServedModel(path, /*use_mmap=*/true);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().mmap_used);
  EXPECT_TRUE(opened.value().model->ReadOnly());
  RunningServer running(std::move(opened.value().model));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  // Stored-id queries answer exactly like the full estimator...
  std::vector<uint64_t> queries;
  for (uint64_t id = 0; id < 40; ++id) queries.push_back(id);
  std::vector<double> served;
  ASSERT_TRUE(client.Query(queries, served).ok());
  for (uint64_t id = 0; id < served.size(); ++id) {
    EXPECT_EQ(served[id],
              bundle.estimator->Estimate({id, nullptr}))
        << "id " << id;
  }

  // ...while ingest and snapshot are rejected as FailedPrecondition and
  // the session survives to answer more queries.
  const std::vector<uint64_t> some_keys = {1, 2, 3};
  auto ingest = client.Ingest(some_keys);
  ASSERT_FALSE(ingest.ok());
  EXPECT_EQ(ingest.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, RotationRequiresMutableModel) {
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(16);
  bundle.featurizer.Fit({{"a", 1.0}});
  core::OptHashConfig config;
  config.total_buckets = 40;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < 20; ++i) {
    prefix.push_back({.id = i, .frequency = 1.0, .features = {0.0}});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(trained.ok());
  bundle.estimator = std::move(trained).value();
  const std::string path = ::testing::TempDir() + "/served_ro_rot.bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());
  auto opened = OpenServedModel(path, /*use_mmap=*/true);
  ASSERT_TRUE(opened.ok());
  RotationConfig rotation;
  rotation.dir = FreshDir("ro");
  RunningServer running(std::move(opened.value().model), rotation);
  const Status started = running.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kFailedPrecondition);
}

TEST(ServerTest, CheckpointRestartResumesExactly) {
  // Serve, ingest half, snapshot, "crash" (tear down the server), start a
  // NEW server from the rotated snapshot, ingest the other half: counts
  // must equal one unbroken ingestion.
  const std::vector<uint64_t> keys = ZipfishKeys(30000, 21);
  const size_t half = keys.size() / 2;
  RotationConfig rotation;
  rotation.dir = FreshDir("resume");

  {
    RunningServer running(FreshCms(), rotation);
    ASSERT_TRUE(running.Start().ok());
    Client client = running.MustConnect();
    ASSERT_TRUE(
        client
            .Ingest(Span<const uint64_t>(keys.data(), half))
            .ok());
    auto sequence = client.Snapshot();
    ASSERT_TRUE(sequence.ok());
    EXPECT_EQ(sequence.value(), 1u);
    // No clean shutdown: the server object is torn down with state only
    // in the rotated snapshot, like a kill -9.
  }

  auto latest = SnapshotRotator::FindLatestSnapshot(rotation.dir);
  ASSERT_TRUE(latest.ok());
  auto opened = OpenServedModel(latest.value(), /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok());
  RunningServer resumed(std::move(opened.value().model), rotation);
  ASSERT_TRUE(resumed.Start().ok());
  Client client = resumed.MustConnect();
  ASSERT_TRUE(client
                  .Ingest(Span<const uint64_t>(keys.data() + half,
                                               keys.size() - half))
                  .ok());

  sketch::CountMinSketch unbroken(512, 4, 3);
  unbroken.UpdateBatch(keys);
  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 100; ++key) queries.push_back(key);
  std::vector<double> served;
  ASSERT_TRUE(client.Query(queries, served).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(served[i],
              static_cast<double>(unbroken.Estimate(queries[i])))
        << "key " << queries[i];
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().model_total_items, keys.size());
}

TEST(ServerTest, SnapshotUnderLoadRestoresConsistentCounts) {
  // Writers hammer one key in fixed-size request blocks while a snapshot
  // is taken mid-flight. The ingest block is the atomicity unit, so the
  // rotated snapshot must hold an exact multiple of the block size, its
  // own total_count must equal the single key's estimate (one key only),
  // and the total must be a plausible prefix of what was sent.
  constexpr uint64_t kKey = 424242;
  constexpr size_t kBlock = 10;
  constexpr size_t kRequestsPerWriter = 60;
  constexpr size_t kWriters = 3;
  RotationConfig rotation;
  rotation.dir = FreshDir("underload");

  RunningServer running(FreshCms(2048, 4, 9), rotation);
  ASSERT_TRUE(running.Start().ok());

  std::vector<uint64_t> block(kBlock, kKey);
  std::vector<std::thread> writers;
  std::atomic<bool> go{false};
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      auto client = Client::Connect(running.socket());
      ASSERT_TRUE(client.ok());
      while (!go.load()) std::this_thread::yield();
      for (size_t r = 0; r < kRequestsPerWriter; ++r) {
        auto acked = client.value().Ingest(block);
        ASSERT_TRUE(acked.ok());
      }
    });
  }
  Client snapshotter = running.MustConnect();
  go.store(true);
  // Rotate twice while the writers are mid-stream.
  auto first = snapshotter.Snapshot();
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto second = snapshotter.Snapshot();
  ASSERT_TRUE(second.ok());
  for (std::thread& writer : writers) writer.join();

  // Every rotated snapshot must be internally consistent: an exact
  // multiple of the request block, never more than what was sent, and
  // with estimate == total (single-key stream in an ample sketch).
  auto rotated = SnapshotRotator::ListRotated(rotation.dir);
  ASSERT_TRUE(rotated.ok());
  ASSERT_GE(rotated.value().size(), 2u);
  for (const auto& [sequence, name] : rotated.value()) {
    auto restored = io::testutil::OpenArtifactAs<sketch::CountMinSketch>(
        rotation.dir + "/" + name);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const uint64_t total = restored.value().total_count();
    EXPECT_EQ(total % kBlock, 0u) << name << " split an ingest block";
    EXPECT_LE(total, kWriters * kRequestsPerWriter * kBlock);
    EXPECT_EQ(restored.value().Estimate(kKey), total) << name;
  }

  // And the final state serves the full stream.
  Client reader = running.MustConnect();
  std::vector<double> estimate;
  const std::vector<uint64_t> one_key = {kKey};
  ASSERT_TRUE(reader.Query(one_key, estimate).ok());
  EXPECT_EQ(estimate[0],
            static_cast<double>(kWriters * kRequestsPerWriter * kBlock));
}

TEST(ServerTest, QuerySpanLargerThanOneFrameIsChunked) {
  // A span beyond one frame's key capacity must split into several
  // requests inside the client (not abort on the encoder's frame cap)
  // and come back index-aligned.
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();
  const std::vector<uint64_t> some_keys = {5, 5, 5};
  ASSERT_TRUE(client.Ingest(some_keys).ok());

  std::vector<uint64_t> big(kMaxKeysPerFrame + 1000, 0);
  for (size_t i = 0; i < big.size(); ++i) big[i] = i % 7;
  std::vector<double> out;
  ASSERT_TRUE(client.Query(big, out).ok());
  ASSERT_EQ(out.size(), big.size());
  // Same key, same answer — including across the chunk boundary.
  EXPECT_EQ(out[5], 3.0);
  EXPECT_EQ(out[big.size() - 2], out[(big.size() - 2) % 7]);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().query_requests, 2u);
  EXPECT_EQ(stats.value().queries_served, big.size());
}

TEST(ServerTest, MalformedFramesGetErrorAndSessionCloses) {
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());

  // Raw sockets: a garbage type byte in a well-formed frame, and type 9,
  // the retired scoped-request envelope (the exact frame an old client
  // sent for an id-0 ping). Both are unknown types.
  const std::vector<std::vector<uint8_t>> unknown_type_frames = {
      {1, 0, 0, 0, 73}, {7, 0, 0, 0, 9, 1, 0, 0, 0, 0, 4}};
  std::vector<uint8_t> payload;
  Status remote;
  for (const std::vector<uint8_t>& frame : unknown_type_frames) {
    auto fd = ConnectUnix(running.socket());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        WriteAll(fd.value(), Span<const uint8_t>(frame.data(), frame.size()))
            .ok());
    ASSERT_TRUE(ReadFramePayload(fd.value(), payload).ok());
    ASSERT_TRUE(DecodeErrorResponse(
                    Span<const uint8_t>(payload.data(), payload.size()), remote)
                    .ok());
    EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument)
        << "type byte " << int{frame[4]};
    // The server hangs up after a protocol error.
    EXPECT_EQ(ReadFramePayload(fd.value(), payload).code(),
              StatusCode::kNotFound);
    CloseSocket(fd.value());
  }

  // An oversized length prefix is rejected without ballooning memory.
  auto fd2 = ConnectUnix(running.socket());
  ASSERT_TRUE(fd2.ok());
  const uint8_t huge_header[] = {0xFF, 0xFF, 0xFF, 0x7F, 1};
  ASSERT_TRUE(
      WriteAll(fd2.value(), Span<const uint8_t>(huge_header, 5)).ok());
  ASSERT_TRUE(ReadFramePayload(fd2.value(), payload).ok());
  ASSERT_TRUE(
      DecodeErrorResponse(Span<const uint8_t>(payload.data(), payload.size()),
                          remote)
          .ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  CloseSocket(fd2.value());

  // A truncated frame (count promises more keys than sent) also errors.
  auto fd3 = ConnectUnix(running.socket());
  ASSERT_TRUE(fd3.ok());
  const uint8_t short_query[] = {5, 0, 0, 0, 1, 200, 0, 0, 0};
  ASSERT_TRUE(
      WriteAll(fd3.value(), Span<const uint8_t>(short_query, 9)).ok());
  ASSERT_TRUE(ReadFramePayload(fd3.value(), payload).ok());
  ASSERT_TRUE(
      DecodeErrorResponse(Span<const uint8_t>(payload.data(), payload.size()),
                          remote)
          .ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
  CloseSocket(fd3.value());

  // The daemon survived all four hostile sessions.
  Client client = running.MustConnect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, ShutdownRequestStopsTheServer) {
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();
  ASSERT_TRUE(client.Shutdown().ok());
  // Wait() must return promptly once the shutdown request lands.
  running.server().Wait();
  running.server().RequestShutdown();
  EXPECT_FALSE(running.server().running());
  // New connections are refused once the socket is gone.
  EXPECT_FALSE(Client::Connect(running.socket()).ok());
}

TEST(ServerTest, TcpServesByteIdenticalToUnix) {
  // One daemon, both transports. Every answer — including the error
  // payload for a hostile frame — must be the same bytes on TCP as on
  // the Unix socket.
  ServerConfig config;
  config.socket_path = FreshSocketPath();
  config.listen_address = "127.0.0.1:0";  // Kernel-picked port.
  Server server(config, FreshCms());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);
  const std::string tcp_target =
      "127.0.0.1:" + std::to_string(server.tcp_port());

  auto over_unix = Client::Connect(config.socket_path);
  ASSERT_TRUE(over_unix.ok()) << over_unix.status().ToString();
  auto over_tcp = Client::Connect(tcp_target);
  ASSERT_TRUE(over_tcp.ok()) << over_tcp.status().ToString();

  // Ingest over TCP; both transports then see the same model.
  const std::vector<uint64_t> keys = ZipfishKeys(20000, 31);
  auto acked = over_tcp.value().Ingest(keys);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(acked.value(), keys.size());

  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 300; ++key) queries.push_back(key);
  std::vector<double> unix_answers;
  std::vector<double> tcp_answers;
  ASSERT_TRUE(over_unix.value().Query(queries, unix_answers).ok());
  ASSERT_TRUE(over_tcp.value().Query(queries, tcp_answers).ok());
  EXPECT_EQ(unix_answers, tcp_answers);

  // Raw bytes: the identical garbage frame draws the identical error
  // payload, then the hangup, on both transports.
  const uint8_t garbage_frame[] = {1, 0, 0, 0, 73};
  std::vector<uint8_t> unix_error;
  std::vector<uint8_t> tcp_error;
  {
    auto fd = ConnectUnix(config.socket_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        WriteAll(fd.value(), Span<const uint8_t>(garbage_frame, 5)).ok());
    ASSERT_TRUE(ReadFramePayload(fd.value(), unix_error).ok());
    std::vector<uint8_t> extra;
    EXPECT_EQ(ReadFramePayload(fd.value(), extra).code(),
              StatusCode::kNotFound);
    CloseSocket(fd.value());
  }
  {
    auto address = ParseHostPort(tcp_target);
    ASSERT_TRUE(address.ok());
    auto fd = ConnectTcp(address.value());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        WriteAll(fd.value(), Span<const uint8_t>(garbage_frame, 5)).ok());
    ASSERT_TRUE(ReadFramePayload(fd.value(), tcp_error).ok());
    std::vector<uint8_t> extra;
    EXPECT_EQ(ReadFramePayload(fd.value(), extra).code(),
              StatusCode::kNotFound);
    CloseSocket(fd.value());
  }
  EXPECT_EQ(unix_error, tcp_error);

  // Shutdown over TCP works like shutdown over Unix.
  ASSERT_TRUE(over_tcp.value().Shutdown().ok());
  server.Wait();
  server.RequestShutdown();
  EXPECT_FALSE(Client::Connect(tcp_target).ok());
}

std::unique_ptr<ServedModel> FreshSpaceSaving(size_t capacity = 256) {
  FreshSketchSpec spec;
  spec.kind = "ss";
  spec.capacity = capacity;
  auto model = CreateServedSketch(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

TEST(ServerTest, ServedTopKMatchesExactCountsOnAmpleSummary) {
  // Distinct keys well under capacity: every Space-Saving counter is
  // exact, so the served top-k must report the true counts, all
  // guaranteed, in canonical order — whatever thread count the server's
  // sharded ingest used.
  RunningServer running(FreshSpaceSaving());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  // Key j (1..50) arrives 101 - j times.
  std::vector<uint64_t> keys;
  for (uint64_t key = 1; key <= 50; ++key) {
    for (uint64_t copy = 0; copy < 101 - key; ++copy) keys.push_back(key);
  }
  ASSERT_TRUE(client.Ingest(keys).ok());

  std::vector<sketch::HeavyHitter> hitters;
  ASSERT_TRUE(client.TopK(10, hitters).ok());
  ASSERT_EQ(hitters.size(), 10u);
  for (size_t i = 0; i < hitters.size(); ++i) {
    EXPECT_EQ(hitters[i].id, i + 1);
    EXPECT_EQ(hitters[i].estimate, static_cast<double>(100 - i));
    EXPECT_EQ(hitters[i].error_bound, 0.0);
    EXPECT_TRUE(hitters[i].guaranteed);
  }

  // The topk request is its own stats counter, not a query.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().query_requests, 0u);
}

TEST(ServerTest, TopKOnKindWithoutCandidatesFailsAndSessionSurvives) {
  RunningServer running(FreshCms());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();
  const std::vector<uint64_t> keys = {1, 1, 2};
  ASSERT_TRUE(client.Ingest(keys).ok());

  std::vector<sketch::HeavyHitter> hitters;
  const Status status = client.TopK(5, hitters);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("cannot answer top-k"), std::string::npos);

  // A semantic failure is not a protocol violation: the same connection
  // keeps serving.
  EXPECT_TRUE(client.Ping().ok());
  std::vector<double> estimates;
  const std::vector<uint64_t> one_key = {1};
  ASSERT_TRUE(client.Query(one_key, estimates).ok());
  EXPECT_EQ(estimates[0], 2.0);
}

TEST(ServerTest, TopKErrorListsWindowedHeavyHitterKinds) {
  // The unsupported-kind error names every kind that does answer top-k,
  // windowed rings of the heavy-hitter summaries included.
  std::unique_ptr<ServedModel> model = FreshCms();
  auto context = model->NewQueryContext();
  std::vector<sketch::HeavyHitter> hitters;
  const Status status = model->TopK(*context, 5, hitters);
  ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("cannot answer top-k"), std::string::npos);
  for (const char* kind :
       {"misra-gries", "windowed-misra-gries", "windowed-space-saving",
        "windowed-learned-count-min", "mapped-model-bundle"}) {
    EXPECT_NE(status.message().find(kind), std::string::npos) << kind;
  }
  EXPECT_EQ(status.message().find("windowed-count-min"), std::string::npos);

  FreshSketchSpec windowed;
  windowed.kind = "mg";
  windowed.windows = 2;
  windowed.window_items = 4;
  auto ring = CreateServedSketch(windowed);
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  EXPECT_TRUE(ring.value()->SupportsTopK());
  EXPECT_STREQ(ring.value()->Kind(), "windowed-misra-gries");
}

TEST(ServerTest, MetricsRendersPrometheusTextExposition) {
  RunningServer running(FreshSpaceSaving());
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();
  const std::vector<uint64_t> keys = {4, 4, 5};
  ASSERT_TRUE(client.Ingest(keys).ok());
  std::vector<double> estimates;
  const std::vector<uint64_t> one_key = {4};
  ASSERT_TRUE(client.Query(one_key, estimates).ok());
  std::vector<sketch::HeavyHitter> hitters;
  ASSERT_TRUE(client.TopK(1, hitters).ok());

  std::string text;
  ASSERT_TRUE(client.Metrics(text).ok());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // Counters carry their ingest/query/topk traffic...
  EXPECT_NE(text.find("# HELP opthash_items_ingested_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE opthash_items_ingested_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_items_ingested_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("opthash_query_requests_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("opthash_topk_requests_total 1\n"), std::string::npos);
  // ...the durability/teardown failure counters exist (and are zero on a
  // healthy run) so operators can alert on them going nonzero.
  EXPECT_NE(text.find("opthash_snapshot_failures_total 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_teardown_errors_total 0\n"),
            std::string::npos);
  // ...gauges and the latency summary are present with their types.
  EXPECT_NE(text.find("# TYPE opthash_model_total_items gauge"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_model_total_items 3.000000\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE opthash_query_latency_micros summary"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_micros{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_micros{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_micros_count"),
            std::string::npos);
  // ...and the kernel-tier info gauge names the active SIMD tier so a
  // scrape can alert on an unexpected "scalar" after a rollout.
  EXPECT_NE(text.find("# TYPE opthash_simd_tier_info gauge"),
            std::string::npos);
  const std::string tier_sample =
      std::string("opthash_simd_tier_info{tier=\"") +
      std::string(sketch::kernels::KernelTierName(
          sketch::kernels::ActiveKernelTier())) +
      "\"} 1\n";
  EXPECT_NE(text.find(tier_sample), std::string::npos);
}

TEST(ServerTest, ConcurrentQueriesWhileIngesting) {
  // Readers and a writer share the daemon; every answer must be a value
  // the key actually had (monotone non-decreasing for CMS).
  RunningServer running(FreshCms(4096, 4, 17));
  ASSERT_TRUE(running.Start().ok());
  constexpr uint64_t kKey = 7;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto client = Client::Connect(running.socket());
      ASSERT_TRUE(client.ok());
      std::vector<double> out;
      const std::vector<uint64_t> one_key = {kKey};
      double last = 0.0;
      while (!stop.load()) {
        ASSERT_TRUE(client.value().Query(one_key, out).ok());
        EXPECT_GE(out[0], last);  // Counts never go backwards.
        last = out[0];
      }
    });
  }
  Client writer = running.MustConnect();
  std::vector<uint64_t> block(100, kKey);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Ingest(block).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  std::vector<double> out;
  const std::vector<uint64_t> one_key = {kKey};
  ASSERT_TRUE(writer.Query(one_key, out).ok());
  EXPECT_EQ(out[0], 5000.0);
}

// Readers query one key while a writer ingests it in fixed-size blocks.
// Ingest hashes a block before taking the writer lock and changes its
// counters under one hold of it, so every answer is a whole number of
// blocks. 20,000 keys at depth 4 overflow the staging budget, so the
// tail hashed under the lock is covered too. CountSketch stores each
// count signed per level and answers their median, so a half-applied
// block shows there as well.
class IngestAtomicityUnderLoad
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(IngestAtomicityUnderLoad, ReadersSeeWholeBlocksOnly) {
  const size_t block_size = std::get<1>(GetParam());
  FreshSketchSpec spec;
  spec.kind = std::get<0>(GetParam());
  spec.width = 4096;
  spec.depth = 4;
  spec.seed = 21;
  auto model = CreateServedSketch(spec);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  RunningServer running(std::move(model).value());
  ASSERT_TRUE(running.Start().ok());

  constexpr uint64_t kKey = 99;
  const size_t blocks = 400000 / block_size;
  std::atomic<bool> stop{false};
  std::atomic<size_t> answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto client = Client::Connect(running.socket());
      ASSERT_TRUE(client.ok());
      std::vector<double> out;
      const std::vector<uint64_t> one_key = {kKey};
      while (!stop.load()) {
        ASSERT_TRUE(client.value().Query(one_key, out).ok());
        const auto count = static_cast<uint64_t>(out[0]);
        ASSERT_EQ(static_cast<double>(count), out[0]);
        ASSERT_EQ(count % block_size, 0u) << "a query split an ingest block";
        answers.fetch_add(1);
      }
    });
  }
  Client writer = running.MustConnect();
  const std::vector<uint64_t> block(block_size, kKey);
  for (size_t i = 0; i < blocks; ++i) {
    ASSERT_TRUE(writer.Ingest(block).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(answers.load(), 0u);
  std::vector<double> out;
  const std::vector<uint64_t> one_key = {kKey};
  ASSERT_TRUE(writer.Query(one_key, out).ok());
  EXPECT_EQ(out[0], static_cast<double>(blocks * block_size));
}

INSTANTIATE_TEST_SUITE_P(
    ServerTest, IngestAtomicityUnderLoad,
    ::testing::Combine(::testing::Values(std::string("cms"),
                                         std::string("countsketch")),
                       ::testing::Values(size_t{100}, size_t{20000})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_block" +
             std::to_string(std::get<1>(info.param));
    });

// SmallBundle(kNone) saved as a binary bundle under the test's temp dir;
// its path.
std::string SaveSmallBundle(const std::string& stem) {
  const std::string path = ::testing::TempDir() + "/" + stem + "_" +
                           std::to_string(::getpid()) + ".bin";
  EXPECT_TRUE(io::SaveModelBundle(path,
                                  SmallBundle(core::ClassifierKind::kNone),
                                  io::SnapshotFormat::kBinary)
                  .ok());
  return path;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The bundle counterpart of IngestAtomicityUnderLoad: readers query a
// stored id while a writer ingests it in fixed-size blocks. A bundle
// counts a block with no lock held and folds every worker's deltas under
// one hold of the writer lock, so every answer is the id's bucket average
// after a whole number of blocks. Ingest blocks of 64 keys spread a
// request over every worker, so at 4 threads a fold split by a reader
// would show.
class BundleIngestAtomicityUnderLoad
    : public ::testing::TestWithParam<size_t> {};

TEST_P(BundleIngestAtomicityUnderLoad, ReadersSeeWholeBlocksOnly) {
  const std::string path =
      SaveSmallBundle("atomic_bundle_" + std::to_string(GetParam()));
  auto bundle = io::LoadModelBundle(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const core::OptHashEstimator& estimator = *bundle.value().estimator;
  const uint64_t key = estimator.table().ids()[estimator.num_stored_ids() / 2];
  const auto bucket = static_cast<size_t>(estimator.table().Find(key));
  const double base = estimator.BucketFrequency(bucket);
  const double count = estimator.BucketCount(bucket);
  ASSERT_GT(count, 0.0);

  auto opened = OpenServedModel(path, /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  stream::ShardedIngestConfig ingest;
  ingest.num_threads = GetParam();
  ingest.block_size = 64;
  RunningServer running(std::move(opened.value().model), {}, ingest);
  ASSERT_TRUE(running.Start().ok());

  constexpr size_t kBlockSize = 1000;
  constexpr size_t kBlocks = 300;
  const auto after_blocks = [&](double blocks) {
    return (base + blocks * kBlockSize) / count;
  };
  std::atomic<bool> stop{false};
  std::atomic<size_t> answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto client = Client::Connect(running.socket());
      ASSERT_TRUE(client.ok());
      std::vector<double> out;
      const std::vector<uint64_t> one_key = {key};
      while (!stop.load()) {
        ASSERT_TRUE(client.value().Query(one_key, out).ok());
        const double blocks =
            std::round((out[0] * count - base) / kBlockSize);
        ASSERT_GE(blocks, 0.0);
        ASSERT_LE(blocks, static_cast<double>(kBlocks));
        ASSERT_EQ(out[0], after_blocks(blocks))
            << "a query split an ingest block";
        answers.fetch_add(1);
      }
    });
  }
  Client writer = running.MustConnect();
  const std::vector<uint64_t> block(kBlockSize, key);
  for (size_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(writer.Ingest(block).ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(answers.load(), 0u);
  std::vector<double> out;
  const std::vector<uint64_t> one_key = {key};
  ASSERT_TRUE(writer.Query(one_key, out).ok());
  EXPECT_EQ(out[0], after_blocks(kBlocks));
}

INSTANTIATE_TEST_SUITE_P(ServerTest, BundleIngestAtomicityUnderLoad,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// A served bundle folds its workers' deltas in worker order, so ingesting
// at one thread or at four leaves the same counters and writes the same
// snapshot bytes.
TEST(ServerTest, ServedBundleSnapshotIsTheSameAtOneAndFourThreads) {
  const std::string path = SaveSmallBundle("threads_bundle");
  // Stored ids (100..249) and misses alike.
  Rng rng(29);
  std::vector<uint64_t> keys(20000);
  for (auto& key : keys) key = 50 + rng.NextBounded(250);
  std::vector<std::string> snapshots;
  for (const size_t threads : {1, 4}) {
    auto opened = OpenServedModel(path, /*use_mmap=*/false);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ServedModel& model = *opened.value().model;
    stream::ShardedIngestConfig config;
    config.num_threads = threads;
    config.block_size = 64;
    for (size_t base = 0; base < keys.size(); base += 3000) {
      const Span<const uint64_t> block(
          keys.data() + base, std::min<size_t>(3000, keys.size() - base));
      ASSERT_TRUE(model.Ingest(block, config).ok());
    }
    const std::string out = FreshDir("threads") + ".bin";
    ASSERT_TRUE(model.SaveSnapshot(out).ok());
    snapshots.push_back(FileBytes(out));
  }
  ASSERT_FALSE(snapshots[0].empty());
  EXPECT_EQ(snapshots[0], snapshots[1]);
}

}  // namespace
}  // namespace opthash::server
