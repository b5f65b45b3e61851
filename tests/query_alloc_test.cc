// Allocation-freedom regression tests for the query hot path (PR 4's
// bugfix): the scalar learned estimate used to heap-allocate a dense
// ~vocab-dim feature vector (plus classifier scratch) per lookup. These
// tests replace the global operator new/delete with counting versions and
// assert that a *warm* query path — scalar and batched, featurization
// included — performs zero heap allocations. Works under ASan too (the
// counting operators forward to malloc/free, which ASan intercepts).

#include <atomic>
#include <cstdlib>
#include <new>
#include <shared_mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/span.h"
#include "core/baseline_estimators.h"
#include "core/opt_hash_estimator.h"
#include "io/model_io.h"
#include "server/protocol.h"
#include "server/served_model.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "stream/features.h"
#include "stream/sharded_ingest.h"

namespace {
std::atomic<size_t> g_allocation_count{0};
}  // namespace

// Counting global allocator. Every operator new in the binary funnels
// through here; the tests read the counter around warmed hot-path calls.
void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace opthash {
namespace {

using core::ClassifierKind;
using core::OptHashConfig;
using core::OptHashEstimator;
using core::OptHashQueryWorkspace;
using core::PrefixElement;
using core::SolverKind;
using stream::StreamItem;

// Allocations performed by `fn` (exact count).
template <typename Fn>
size_t AllocationsIn(Fn fn) {
  const size_t before = g_allocation_count.load();
  fn();
  return g_allocation_count.load() - before;
}

TEST(QueryAllocTest, FeaturizeOutParameterIsAllocationFreeWhenWarm) {
  stream::BagOfWordsFeaturizer featurizer(32);
  featurizer.Fit({{"alpha beta gamma delta", 5.0}, {"epsilon zeta", 2.0}});
  const std::string text = "alpha gamma, epsilon query. tail";
  std::vector<double> out;
  featurizer.Featurize(text, out);  // Warm-up sizes the buffer.
  EXPECT_EQ(out.size(), featurizer.FeatureDim());
  const size_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 100; ++i) featurizer.Featurize(text, out);
  });
  EXPECT_EQ(allocations, 0u);
  // And it computes the same features as the allocating overload.
  EXPECT_EQ(out, featurizer.Featurize(text));
}

OptHashEstimator TrainSmall(ClassifierKind classifier) {
  Rng rng(7);
  std::vector<PrefixElement> prefix;
  for (size_t i = 0; i < 24; ++i) {
    const bool heavy = i < 8;
    prefix.push_back({.id = 100 + i,
                      .frequency = heavy ? 60.0 : 2.0,
                      .features = {heavy ? 4.0 + rng.NextGaussian() * 0.1
                                         : -4.0 + rng.NextGaussian() * 0.1,
                                   rng.NextGaussian()}});
  }
  OptHashConfig config;
  config.total_buckets = 26;
  config.id_ratio = 0.3;
  config.solver = SolverKind::kDp;
  config.classifier = classifier;
  config.rf.num_trees = 4;
  auto trained = OptHashEstimator::Train(config, prefix);
  OPTHASH_CHECK(trained.ok());
  return std::move(trained).value();
}

TEST(QueryAllocTest, ScalarLearnedEstimateIsAllocationFreeWhenWarm) {
  // Every classifier kind: the scalar path routes through the batch
  // machinery with batch = 1, and the classifiers' thread-local scratch
  // must hold after one warm-up call.
  for (const ClassifierKind kind :
       {ClassifierKind::kNone, ClassifierKind::kLogisticRegression,
        ClassifierKind::kCart, ClassifierKind::kRandomForest}) {
    const OptHashEstimator estimator = TrainSmall(kind);
    const std::vector<double> stored_features = {4.0, 0.0};
    const std::vector<double> unseen_features = {-4.2, 0.3};
    const StreamItem stored{100, &stored_features};
    const StreamItem unseen{9999, &unseen_features};
    (void)estimator.Estimate(stored);  // Warm the thread-local workspace.
    (void)estimator.Estimate(unseen);
    const size_t allocations = AllocationsIn([&] {
      for (int i = 0; i < 100; ++i) {
        (void)estimator.Estimate(stored);
        (void)estimator.Estimate(unseen);
        (void)estimator.Estimate({777, nullptr});
      }
    });
    EXPECT_EQ(allocations, 0u)
        << "classifier kind " << static_cast<int>(kind);
  }
}

TEST(QueryAllocTest, BatchLearnedEstimateIsAllocationFreeWhenWarm) {
  const OptHashEstimator estimator = TrainSmall(ClassifierKind::kRandomForest);
  Rng rng(11);
  std::vector<std::vector<double>> feature_store;
  feature_store.reserve(256);
  std::vector<StreamItem> items;
  for (size_t i = 0; i < 256; ++i) {
    feature_store.push_back({rng.NextDouble(-5.0, 5.0), rng.NextGaussian()});
    items.push_back({90 + rng.NextBounded(60), &feature_store.back()});
  }
  std::vector<double> out(items.size());
  OptHashQueryWorkspace workspace;
  const auto run = [&] {
    estimator.EstimateBatch(Span<const StreamItem>(items.data(), items.size()),
                            Span<double>(out.data(), out.size()), workspace);
  };
  run();  // Warm-up sizes the workspace.
  const size_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 20; ++i) run();
  });
  EXPECT_EQ(allocations, 0u);
}

TEST(QueryAllocTest, SketchBatchQueriesAreAllocationFree) {
  Rng rng(13);
  std::vector<uint64_t> stream(4000);
  for (auto& key : stream) key = rng.NextBounded(500);
  std::vector<uint64_t> queries(512);
  for (auto& key : queries) key = rng.NextBounded(800);

  sketch::CountMinSketch cms(256, 4, 3);
  cms.UpdateBatch(stream);
  sketch::CountSketch countsketch(256, 5, 3);
  countsketch.UpdateBatch(stream);

  std::vector<uint64_t> unsigned_out(queries.size());
  std::vector<int64_t> signed_out(queries.size());
  // Warm-up (CountSketch's deep-sketch fallback path is thread-local).
  cms.EstimateBatch(Span<const uint64_t>(queries.data(), queries.size()),
                    Span<uint64_t>(unsigned_out.data(), unsigned_out.size()));
  countsketch.EstimateBatch(
      Span<const uint64_t>(queries.data(), queries.size()),
      Span<int64_t>(signed_out.data(), signed_out.size()));
  const size_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 20; ++i) {
      cms.EstimateBatch(
          Span<const uint64_t>(queries.data(), queries.size()),
          Span<uint64_t>(unsigned_out.data(), unsigned_out.size()));
      countsketch.EstimateBatch(
          Span<const uint64_t>(queries.data(), queries.size()),
          Span<int64_t>(signed_out.data(), signed_out.size()));
      for (uint64_t key : queries) {
        (void)cms.Estimate(key);
        (void)countsketch.Estimate(key);
      }
    }
  });
  EXPECT_EQ(allocations, 0u);
}

// The served ingest of a fresh count-min or CountSketch: the staged
// indices live on the ingest function's stack, never on the heap, with
// the server's lock passed in and with the lock of the two-argument
// overload alike.
TEST(QueryAllocTest, ServedSketchIngestIsAllocationFreeWhenWarm) {
  Rng rng(19);
  std::vector<uint64_t> block(4096);
  for (auto& key : block) key = rng.NextBounded(100000);
  const Span<const uint64_t> keys(block.data(), block.size());
  const stream::ShardedIngestConfig one_thread;
  for (const char* kind : {"cms", "countsketch"}) {
    server::FreshSketchSpec spec;
    spec.kind = kind;
    spec.width = 1 << 16;
    auto created = server::CreateServedSketch(spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    server::ServedModel& model = *created.value();
    std::shared_mutex writer;
    ASSERT_TRUE(model.Ingest(keys, one_thread, writer).ok());  // Warm-up.
    const size_t allocations = AllocationsIn([&] {
      for (int i = 0; i < 20; ++i) {
        OPTHASH_CHECK(model.Ingest(keys, one_thread, writer).ok());
        OPTHASH_CHECK(model.Ingest(keys, one_thread).ok());
      }
    });
    EXPECT_EQ(allocations, 0u) << kind;
  }
}

// The served ingest of a fully loaded bundle allocates a fixed few blocks
// per call, whatever its length: the workers' bucket delta arrays (one
// array), the ingest engine's replica list and its worker callable. The
// bound is the count when the whole block ran under the writer lock;
// counting before the lock must not raise it.
TEST(QueryAllocTest, ServedBundleIngestAllocationsStayBoundedWhenWarm) {
  constexpr size_t kBoundPerIngest = 3;
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(8);
  bundle.featurizer.Fit({{"alpha beta", 3.0}});
  bundle.estimator = TrainSmall(ClassifierKind::kNone);
  const std::string path =
      ::testing::TempDir() + "/query_alloc_served_bundle.bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());
  auto opened = server::OpenServedModel(path, /*use_mmap=*/false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  server::ServedModel& model = *opened.value().model;

  Rng rng(23);
  std::vector<uint64_t> block(4096);
  for (auto& key : block) key = 90 + rng.NextBounded(60);
  const Span<const uint64_t> keys(block.data(), block.size());
  const stream::ShardedIngestConfig one_thread;
  std::shared_mutex writer;
  ASSERT_TRUE(model.Ingest(keys, one_thread, writer).ok());  // Warm-up.
  constexpr size_t kIngests = 20;
  const size_t allocations = AllocationsIn([&] {
    for (size_t i = 0; i < kIngests; ++i) {
      OPTHASH_CHECK(model.Ingest(keys, one_thread, writer).ok());
    }
  });
  EXPECT_LE(allocations, kIngests * kBoundPerIngest);
}

// The wire codec of every query round trip: once the frame and array
// vectors have grown to a batch's size, encoding and decoding the same
// size again reuses their capacity.
TEST(QueryAllocTest, WireCodecIsAllocationFreeWhenWarm) {
  Rng rng(17);
  std::vector<uint64_t> keys(512);
  for (auto& key : keys) key = rng.NextUint64();
  std::vector<double> estimates(keys.size());
  for (auto& value : estimates) value = rng.NextDouble(0.0, 1e6);
  std::vector<uint8_t> request;
  std::vector<uint8_t> reply;
  std::vector<uint64_t> decoded_keys;
  std::vector<double> decoded_estimates;
  const auto payload_of = [](const std::vector<uint8_t>& frame) {
    return Span<const uint8_t>(frame.data() + server::kFrameHeaderSize,
                               frame.size() - server::kFrameHeaderSize);
  };
  const auto round_trip = [&] {
    server::EncodeKeyRequest(server::MessageType::kQuery, keys, request);
    OPTHASH_CHECK(server::DecodeKeyRequest(payload_of(request),
                                           server::MessageType::kQuery,
                                           decoded_keys)
                      .ok());
    server::EncodeEstimatesResponse(estimates, reply);
    OPTHASH_CHECK(
        server::DecodeEstimatesResponse(payload_of(reply), decoded_estimates)
            .ok());
  };
  round_trip();  // Warm-up sizes every vector.
  const size_t allocations = AllocationsIn([&] {
    for (int i = 0; i < 20; ++i) round_trip();
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(decoded_keys, keys);
  EXPECT_EQ(decoded_estimates, estimates);
}

}  // namespace
}  // namespace opthash
