// Windowed serving tests: a real Server on real sockets serving a
// window-partitioned sketch ring — windowed served answers equal a local
// ring fed the same stream, the kWindowStats verb reports ring position
// (and fails cleanly on lifetime models without killing the session),
// checkpoint + crash + restore resumes MID-window to answers identical to
// an unbroken run, both transports agree byte-for-byte, and the
// window-stats wire coding round-trips and rejects garbage.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/model_io.h"
#include "io/sketch_snapshot.h"
#include "io/windowed_snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot_rotator.h"
#include "stream/sharded_ingest.h"
#include "sketch/count_min_sketch.h"
#include "sketch/misra_gries.h"
#include "sketch/windowed_sketch.h"

#include <unistd.h>

namespace opthash::server {
namespace {

std::string FreshSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/opthash_wsrv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

std::string FreshDir(const std::string& stem) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/wserve_" + stem + "_" +
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

// The served geometry every cms test uses; local reference rings must
// match it exactly.
FreshSketchSpec WindowedCmsSpec(size_t windows = 4,
                                uint64_t window_items = 1000,
                                double decay = 1.0) {
  FreshSketchSpec spec;
  spec.kind = "cms";
  spec.width = 512;
  spec.depth = 4;
  spec.seed = 3;
  spec.windows = windows;
  spec.window_items = window_items;
  spec.decay = decay;
  return spec;
}

std::unique_ptr<ServedModel> MustCreate(const FreshSketchSpec& spec) {
  auto model = CreateServedSketch(spec);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

sketch::WindowedSketch<sketch::CountMinSketch> LocalCmsRing(
    const FreshSketchSpec& spec) {
  sketch::CountMinSketch proto(spec.width, spec.depth, spec.seed);
  auto ring = sketch::WindowedSketch<sketch::CountMinSketch>::Create(
      proto, spec.windows, spec.window_items, spec.decay);
  EXPECT_TRUE(ring.ok()) << ring.status().ToString();
  return std::move(ring).value();
}

class RunningServer {
 public:
  explicit RunningServer(std::unique_ptr<ServedModel> model,
                         RotationConfig rotation = {}) {
    config_.socket_path = FreshSocketPath();
    config_.rotation = std::move(rotation);
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

TEST(WindowedServeTest, CreateServedSketchValidatesWindowFlags) {
  // --window/--decay without --windows is a configuration error...
  FreshSketchSpec spec = WindowedCmsSpec(/*windows=*/0, /*window_items=*/50);
  auto no_ring = CreateServedSketch(spec);
  ASSERT_FALSE(no_ring.ok());
  EXPECT_NE(no_ring.status().ToString().find("--windows"), std::string::npos);
  // ...as is a windowed spec that never advances...
  auto no_items = CreateServedSketch(WindowedCmsSpec(4, /*window_items=*/0));
  ASSERT_FALSE(no_items.ok());
  EXPECT_NE(no_items.status().ToString().find("--window"), std::string::npos);
  // ...or a decay outside (0, 1].
  auto bad_decay = CreateServedSketch(WindowedCmsSpec(4, 50, /*decay=*/1.5));
  EXPECT_FALSE(bad_decay.ok());
}

TEST(WindowedServeTest, WindowedModelReportsKindAndWindowStats) {
  auto model = MustCreate(WindowedCmsSpec(3, 100));
  EXPECT_STREQ(model->Kind(), "windowed-count-min");
  EXPECT_FALSE(model->ReadOnly());
  EXPECT_TRUE(model->SupportsWindowStats());
  EXPECT_FALSE(model->SupportsTopK());  // Plain cms stores no ids.

  stream::ShardedIngestConfig one_thread;
  const std::vector<uint64_t> keys(250, 7);
  ASSERT_TRUE(
      model->Ingest(Span<const uint64_t>(keys.data(), keys.size()), one_thread)
          .ok());
  WindowStatsSnapshot stats;
  ASSERT_TRUE(model->WindowStats(stats).ok());
  EXPECT_EQ(stats.window_items, 100u);
  EXPECT_EQ(stats.window_sequence, 2u);
  EXPECT_EQ(stats.items_in_current_window, 50u);
  EXPECT_EQ(stats.decay, 1.0);
  ASSERT_EQ(stats.window_counts.size(), 3u);
  // Oldest first; the ring holds the last two full windows + the open one.
  EXPECT_EQ(stats.window_counts[0], 100u);
  EXPECT_EQ(stats.window_counts[1], 100u);
  EXPECT_EQ(stats.window_counts[2], 50u);
  // TotalItems counts LIVE arrivals only — that is what windowing means.
  EXPECT_EQ(model->TotalItems(), 250u);
}

TEST(WindowedServeTest, LifetimeModelRejectsWindowStatsWithGuidance) {
  FreshSketchSpec plain;
  plain.kind = "cms";
  auto model = MustCreate(plain);
  WindowStatsSnapshot stats;
  const Status status = model->WindowStats(stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The error tells the operator how to get a windowed daemon.
  EXPECT_NE(status.ToString().find("--windows"), std::string::npos);
}

TEST(WindowedServeTest, ServedWindowStatsMatchesLocalRingAndSessionSurvives) {
  const FreshSketchSpec spec = WindowedCmsSpec(4, 1000);
  RunningServer running(MustCreate(spec));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  const std::vector<uint64_t> keys = ZipfishKeys(3456, 31);
  ASSERT_TRUE(client.Ingest(keys).ok());

  auto local = LocalCmsRing(spec);
  local.UpdateBatch(Span<const uint64_t>(keys.data(), keys.size()));

  auto served = client.WindowStats();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.value().window_items, 1000u);
  EXPECT_EQ(served.value().window_sequence, local.window_sequence());
  EXPECT_EQ(served.value().items_in_current_window,
            local.items_in_current_window());
  EXPECT_EQ(served.value().window_counts, local.WindowCountsOldestFirst());

  // Served estimates equal the local ring's, key for key.
  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 200; ++key) queries.push_back(key);
  std::vector<double> answers;
  ASSERT_TRUE(client.Query(queries, answers).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], local.Estimate(queries[i])) << queries[i];
  }
}

TEST(WindowedServeTest, WindowStatsOnLifetimeServerIsSemanticError) {
  FreshSketchSpec plain;
  plain.kind = "cms";
  RunningServer running(MustCreate(plain));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  auto stats = client.WindowStats();
  ASSERT_FALSE(stats.ok());
  // The remote Status came back as a kError frame ("server: " prefix)...
  EXPECT_NE(stats.status().ToString().find("server:"), std::string::npos);
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  // ...and the session survived, exactly like an unsupported top-k.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(WindowedServeTest, DecayedServedEstimatesMatchLocalRing) {
  const FreshSketchSpec spec = WindowedCmsSpec(3, 500, /*decay=*/0.5);
  RunningServer running(MustCreate(spec));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  const std::vector<uint64_t> keys = ZipfishKeys(1733, 37);
  ASSERT_TRUE(client.Ingest(keys).ok());
  auto local = LocalCmsRing(spec);
  local.UpdateBatch(Span<const uint64_t>(keys.data(), keys.size()));

  auto served_stats = client.WindowStats();
  ASSERT_TRUE(served_stats.ok());
  EXPECT_EQ(served_stats.value().decay, 0.5);

  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 120; ++key) queries.push_back(key);
  std::vector<double> answers;
  ASSERT_TRUE(client.Query(queries, answers).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Bit-identical: the decay weights are iterated products on both
    // sides, never std::pow.
    EXPECT_EQ(answers[i], local.Estimate(queries[i])) << queries[i];
  }
}

TEST(WindowedServeTest, CheckpointRestartResumesMidWindowExactly) {
  // Ingest part A ending MID-window, snapshot, crash (no clean shutdown),
  // restore from the rotated snapshot, ingest part B: every answer and
  // every ring coordinate must equal one unbroken windowed ingestion.
  const FreshSketchSpec spec = WindowedCmsSpec(4, 1000);
  const std::vector<uint64_t> keys = ZipfishKeys(7350, 41);
  const size_t part_a = 3456;  // 3456 % 1000 != 0: mid-window on purpose.
  RotationConfig rotation;
  rotation.dir = FreshDir("resume");

  {
    RunningServer running(MustCreate(spec), rotation);
    ASSERT_TRUE(running.Start().ok());
    Client client = running.MustConnect();
    ASSERT_TRUE(
        client.Ingest(Span<const uint64_t>(keys.data(), part_a)).ok());
    auto sequence = client.Snapshot();
    ASSERT_TRUE(sequence.ok()) << sequence.status().ToString();
    // Torn down with state only in the rotated file, like a kill -9.
  }

  auto latest = SnapshotRotator::FindLatestSnapshot(rotation.dir);
  ASSERT_TRUE(latest.ok());
  auto opened = OpenServedModel(latest.value(), /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_STREQ(opened.value().model->Kind(), "windowed-count-min");
  RunningServer resumed(std::move(opened.value().model), rotation);
  ASSERT_TRUE(resumed.Start().ok());
  Client client = resumed.MustConnect();
  ASSERT_TRUE(client
                  .Ingest(Span<const uint64_t>(keys.data() + part_a,
                                               keys.size() - part_a))
                  .ok());

  // The unbroken twin: one local ring fed the whole stream.
  auto unbroken = LocalCmsRing(spec);
  unbroken.UpdateBatch(Span<const uint64_t>(keys.data(), keys.size()));

  auto stats = client.WindowStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().window_sequence, unbroken.window_sequence());
  EXPECT_EQ(stats.value().items_in_current_window,
            unbroken.items_in_current_window());
  EXPECT_EQ(stats.value().window_counts, unbroken.WindowCountsOldestFirst());

  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 200; ++key) queries.push_back(key);
  std::vector<double> answers;
  ASSERT_TRUE(client.Query(queries, answers).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(answers[i], unbroken.Estimate(queries[i])) << queries[i];
  }
}

TEST(WindowedServeTest, TcpServesWindowStatsByteIdenticalToUnix) {
  const FreshSketchSpec spec = WindowedCmsSpec(3, 700);
  ServerConfig config;
  config.socket_path = FreshSocketPath();
  config.listen_address = "127.0.0.1:0";  // Kernel-picked port.
  Server server(config, MustCreate(spec));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.tcp_port(), 0);

  auto unix_client = Client::Connect(config.socket_path);
  ASSERT_TRUE(unix_client.ok());
  auto tcp_client =
      Client::Connect("127.0.0.1:" + std::to_string(server.tcp_port()));
  ASSERT_TRUE(tcp_client.ok());

  const std::vector<uint64_t> keys = ZipfishKeys(2100, 43);
  ASSERT_TRUE(unix_client.value().Ingest(keys).ok());

  auto via_unix = unix_client.value().WindowStats();
  auto via_tcp = tcp_client.value().WindowStats();
  ASSERT_TRUE(via_unix.ok());
  ASSERT_TRUE(via_tcp.ok());
  EXPECT_EQ(via_unix.value().window_sequence, via_tcp.value().window_sequence);
  EXPECT_EQ(via_unix.value().items_in_current_window,
            via_tcp.value().items_in_current_window);
  EXPECT_EQ(via_unix.value().window_counts, via_tcp.value().window_counts);

  std::vector<uint64_t> queries;
  for (uint64_t key = 0; key < 100; ++key) queries.push_back(key);
  std::vector<double> unix_answers;
  std::vector<double> tcp_answers;
  ASSERT_TRUE(unix_client.value().Query(queries, unix_answers).ok());
  ASSERT_TRUE(tcp_client.value().Query(queries, tcp_answers).ok());
  EXPECT_EQ(unix_answers, tcp_answers);
  server.RequestShutdown();
}

TEST(WindowedServeTest, WindowedTopKServedMatchesLocalRing) {
  FreshSketchSpec spec;
  spec.kind = "mg";
  spec.capacity = 64;
  spec.windows = 3;
  spec.window_items = 400;
  RunningServer running(MustCreate(spec));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  Rng rng(47);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < 1350; ++i) keys.push_back(rng.NextBounded(24));
  ASSERT_TRUE(client.Ingest(keys).ok());

  sketch::MisraGries proto(spec.capacity);
  auto local = sketch::WindowedSketch<sketch::MisraGries>::Create(
                   proto, spec.windows, spec.window_items)
                   .value();
  local.UpdateBatch(Span<const uint64_t>(keys.data(), keys.size()));

  std::vector<sketch::HeavyHitter> served;
  ASSERT_TRUE(client.TopK(24, served).ok());
  const auto expected = local.TopK(24);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], expected[i]) << i;
  }
}

TEST(WindowedServeTest, MetricsExportFullLatencyHistogram) {
  RunningServer running(MustCreate(WindowedCmsSpec(2, 100)));
  ASSERT_TRUE(running.Start().ok());
  Client client = running.MustConnect();

  // One query + one window-stats request populate the counters.
  std::vector<uint64_t> queries{1, 2, 3};
  std::vector<double> answers;
  ASSERT_TRUE(client.Query(queries, answers).ok());
  ASSERT_TRUE(client.WindowStats().ok());

  std::string text;
  ASSERT_TRUE(client.Metrics(text).ok());
  // The summary family from PR 7 is still there...
  EXPECT_NE(text.find("# TYPE opthash_query_latency_micros summary"),
            std::string::npos);
  // ...and the new full histogram family exposes raw buckets.
  EXPECT_NE(
      text.find("# TYPE opthash_query_latency_histogram_micros histogram"),
      std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_histogram_micros_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_histogram_micros_bucket"
                      "{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_histogram_micros_sum"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_query_latency_histogram_micros_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("opthash_window_stats_requests_total 1"),
            std::string::npos);
}

TEST(WindowedServeTest, WindowStatsReplyRoundTripsOnTheWire) {
  WindowStatsSnapshot stats;
  stats.window_items = 1000;
  stats.window_sequence = 42;
  stats.items_in_current_window = 250;
  stats.decay = 0.75;
  stats.window_counts = {1000, 1000, 900, 250};

  std::vector<uint8_t> frame;
  EncodeWindowStatsReply(stats, frame);
  // Strip the length prefix to get the payload the decoder sees.
  Span<const uint8_t> payload(frame.data() + kFrameHeaderSize,
                              frame.size() - kFrameHeaderSize);
  auto decoded = DecodeWindowStatsReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().window_items, stats.window_items);
  EXPECT_EQ(decoded.value().window_sequence, stats.window_sequence);
  EXPECT_EQ(decoded.value().items_in_current_window,
            stats.items_in_current_window);
  EXPECT_EQ(decoded.value().decay, stats.decay);
  EXPECT_EQ(decoded.value().window_counts, stats.window_counts);
}

TEST(WindowedServeTest, WindowStatsReplyDecoderRejectsGarbage) {
  WindowStatsSnapshot stats;
  stats.window_counts = {5, 6, 7};
  std::vector<uint8_t> frame;
  EncodeWindowStatsReply(stats, frame);
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderSize, frame.end());

  {  // Truncated body.
    auto decoded = DecodeWindowStatsReply(
        Span<const uint8_t>(payload.data(), payload.size() - 9));
    EXPECT_FALSE(decoded.ok());
  }
  {  // Declared window count disagrees with the body size.
    std::vector<uint8_t> lying = payload;
    lying[1 + 24 + 8] = 200;  // The u32 count field's low byte.
    auto decoded =
        DecodeWindowStatsReply(Span<const uint8_t>(lying.data(), lying.size()));
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().ToString().find("declares"), std::string::npos);
  }
  {  // Wrong message type entirely.
    std::vector<uint8_t> wrong = payload;
    wrong[0] = static_cast<uint8_t>(MessageType::kPong);
    auto decoded =
        DecodeWindowStatsReply(Span<const uint8_t>(wrong.data(), wrong.size()));
    EXPECT_FALSE(decoded.ok());
  }
  {  // Empty payload.
    auto decoded = DecodeWindowStatsReply(Span<const uint8_t>());
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(WindowedServeTest, WindowedSnapshotCrossLoadsFailWithReadableStatus) {
  // A windowed checkpoint and a plain one, side by side.
  sketch::CountMinSketch proto(64, 2, 1);
  auto ring = sketch::WindowedSketch<sketch::CountMinSketch>::Create(
                  proto, 2, 10)
                  .value();
  ring.Update(5);
  const std::string windowed_path =
      ::testing::TempDir() + "/wserve_xload_windowed.bin";
  ASSERT_TRUE(io::SaveWindowedSketchSnapshot(windowed_path, ring).ok());
  sketch::CountMinSketch plain(64, 2, 1);
  plain.Update(5);
  const std::string plain_path =
      ::testing::TempDir() + "/wserve_xload_plain.bin";
  ASSERT_TRUE(io::SaveSketchSnapshot(plain_path, plain).ok());

  // Loading across kinds fails with a Status naming what is missing:
  // the mapped count-min view over a ring, a bundle over a checkpoint.
  auto mapping = io::MappedSnapshot::Open(windowed_path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  auto as_plain = io::MappedCountMinView::FromMapping(
      std::move(mapping).value(), windowed_path);
  ASSERT_FALSE(as_plain.ok());
  EXPECT_NE(as_plain.status().ToString().find("count-min"), std::string::npos);
  auto as_bundle = io::LoadModelBundle(plain_path);
  ASSERT_FALSE(as_bundle.ok());
  EXPECT_NE(as_bundle.status().ToString().find("checkpoint"),
            std::string::npos);

  // The serving loader dispatches BOTH correctly — old artifacts keep
  // opening in a windowed build, windowed ones serve as rings.
  auto plain_model = OpenServedModel(plain_path, /*use_mmap=*/false);
  ASSERT_TRUE(plain_model.ok());
  EXPECT_STREQ(plain_model.value().model->Kind(), "count-min");
  auto ring_model = OpenServedModel(windowed_path, /*use_mmap=*/false);
  ASSERT_TRUE(ring_model.ok());
  EXPECT_STREQ(ring_model.value().model->Kind(), "windowed-count-min");
  EXPECT_TRUE(ring_model.value().model->SupportsWindowStats());
}

}  // namespace
}  // namespace opthash::server
