// The sharded ingestion engine (stream/sharded_ingest.h): replicated
// ingestion of linear sketches must match sequential ingestion *exactly*
// at every thread count, key-partitioned ingestion of the counter-based
// summaries must stay within their deterministic bounds, and the
// custom-replica core must support arbitrary accumulators (the CLI's
// OptHashEstimator delta path).

#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/span.h"
#include "core/opt_hash_estimator.h"
#include "sketch/ams_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/learned_count_min.h"
#include "sketch/misra_gries.h"
#include "sketch/space_saving.h"
#include "stream/sharded_ingest.h"

namespace opthash::stream {
namespace {

std::vector<uint64_t> MakeTrace(size_t length, size_t universe, uint64_t seed,
                                std::unordered_map<uint64_t, uint64_t>* truth) {
  Rng rng(seed);
  ZipfSampler zipf(universe, 1.1);
  std::vector<uint64_t> trace(length);
  for (auto& key : trace) {
    key = zipf.Sample(rng);
    if (truth != nullptr) ++(*truth)[key];
  }
  return trace;
}

ShardedIngestConfig Config(size_t threads, ShardMode mode,
                           size_t block_size = 1024) {
  ShardedIngestConfig config;
  config.num_threads = threads;
  config.block_size = block_size;
  config.mode = mode;
  return config;
}

TEST(ShardedIngestConfigTest, Validation) {
  EXPECT_TRUE(Config(1, ShardMode::kReplicated).Validate().ok());
  EXPECT_TRUE(Config(0, ShardMode::kReplicated).Validate().ok());  // auto
  EXPECT_FALSE(Config(1, ShardMode::kReplicated, 0).Validate().ok());
  EXPECT_FALSE(Config(100000, ShardMode::kReplicated).Validate().ok());
}

TEST(ShardedIngestHelpersTest, ThreadAndBlockMath) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(NumBlocks(0, 16), 0u);
  EXPECT_EQ(NumBlocks(16, 16), 1u);
  EXPECT_EQ(NumBlocks(17, 16), 2u);
}

TEST(ShardedIngestHelpersTest, KeyShardIsStableAndInRange) {
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t shard = KeyShardOf(key, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, KeyShardOf(key, 4));  // Deterministic.
  }
  EXPECT_EQ(KeyShardOf(123, 1), 0u);
}

TEST(ShardedIngestTest, CountMinMatchesSequentialAtEveryThreadCount) {
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(30000, 1000, 3, &truth);

  sketch::CountMinSketch sequential(256, 4, 7);
  sequential.UpdateBatch(Span<const uint64_t>(trace));

  for (size_t threads = 1; threads <= 4; ++threads) {
    sketch::CountMinSketch sharded(256, 4, 7);
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kReplicated),
                               sharded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.value().threads_used, threads);
    EXPECT_EQ(stats.value().num_items, trace.size());
    EXPECT_EQ(sharded.total_count(), sequential.total_count());
    for (const auto& [key, count] : truth) {
      EXPECT_EQ(sharded.Estimate(key), sequential.Estimate(key))
          << "threads=" << threads << " key=" << key;
    }
  }
}

TEST(ShardedIngestTest, CountSketchMatchesSequentialAtEveryThreadCount) {
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(30000, 1000, 5, &truth);

  sketch::CountSketch sequential(256, 5, 11);
  sequential.UpdateBatch(Span<const uint64_t>(trace));

  for (size_t threads = 1; threads <= 4; ++threads) {
    sketch::CountSketch sharded(256, 5, 11);
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kReplicated),
                               sharded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (const auto& [key, count] : truth) {
      EXPECT_EQ(sharded.Estimate(key), sequential.Estimate(key));
    }
  }
}

TEST(ShardedIngestTest, AmsMatchesSequentialAtEveryThreadCount) {
  const auto trace = MakeTrace(20000, 600, 7, nullptr);

  sketch::AmsSketch sequential(5, 8, 13);
  sequential.UpdateBatch(Span<const uint64_t>(trace));

  for (size_t threads = 1; threads <= 4; ++threads) {
    sketch::AmsSketch sharded(5, 8, 13);
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kReplicated),
                               sharded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_DOUBLE_EQ(sharded.EstimateF2(), sequential.EstimateF2());
  }
}

TEST(ShardedIngestTest, LearnedCountMinMatchesSequentialAtEveryThreadCount) {
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(30000, 1000, 9, &truth);
  const std::vector<uint64_t> heavy = sketch::SelectTopKeys(truth, 20);

  auto sequential = sketch::LearnedCountMinSketch::Create(500, 4, heavy, 17);
  ASSERT_TRUE(sequential.ok());
  sequential.value().UpdateBatch(Span<const uint64_t>(trace));

  for (size_t threads = 1; threads <= 4; ++threads) {
    auto sharded = sketch::LearnedCountMinSketch::Create(500, 4, heavy, 17);
    ASSERT_TRUE(sharded.ok());
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kReplicated),
                               sharded.value());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (const auto& [key, count] : truth) {
      EXPECT_EQ(sharded.value().Estimate(key),
                sequential.value().Estimate(key));
    }
  }
}

TEST(ShardedIngestTest, SingleThreadIsBitIdenticalForOrderSensitiveSketches) {
  // The deterministic fallback must not clone/merge: a conservative-update
  // CMS (order-sensitive) ingested with threads=1 equals plain sequential
  // ingestion exactly.
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(20000, 500, 11, &truth);

  sketch::CountMinSketch sequential(64, 3, 19, /*conservative_update=*/true);
  for (uint64_t key : trace) sequential.Update(key);

  sketch::CountMinSketch sharded(64, 3, 19, /*conservative_update=*/true);
  auto stats = ShardedIngest(Span<const uint64_t>(trace),
                             Config(1, ShardMode::kReplicated), sharded);
  ASSERT_TRUE(stats.ok());
  for (const auto& [key, count] : truth) {
    EXPECT_EQ(sharded.Estimate(key), sequential.Estimate(key));
  }
}

TEST(ShardedIngestTest, ConservativeCmsShardedStaysUpperBound) {
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(20000, 500, 13, &truth);
  sketch::CountMinSketch sharded(64, 3, 23, /*conservative_update=*/true);
  auto stats = ShardedIngest(Span<const uint64_t>(trace),
                             Config(4, ShardMode::kReplicated), sharded);
  ASSERT_TRUE(stats.ok());
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sharded.Estimate(key), count);
  }
}

TEST(ShardedIngestTest, MisraGriesKeyPartitionedStaysWithinBound) {
  constexpr size_t kCapacity = 64;
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(30000, 1000, 15, &truth);

  for (size_t threads = 1; threads <= 4; ++threads) {
    sketch::MisraGries sharded(kCapacity);
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kKeyPartitioned),
                               sharded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_LE(sharded.size(), kCapacity);
    // Merging the per-shard summaries sums their error bounds, which
    // total at most n/(capacity + 1).
    const double bound =
        static_cast<double>(trace.size()) / static_cast<double>(kCapacity + 1);
    for (const auto& [key, count] : truth) {
      const uint64_t estimate = sharded.Estimate(key);
      EXPECT_LE(estimate, count);
      EXPECT_LE(static_cast<double>(count - estimate), bound + 1.0)
          << "threads=" << threads;
    }
  }
}

TEST(ShardedIngestTest, SpaceSavingKeyPartitionedStaysUpperBound) {
  constexpr size_t kCapacity = 64;
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(30000, 1000, 17, &truth);

  for (size_t threads = 2; threads <= 4; ++threads) {
    sketch::SpaceSaving sharded(kCapacity);
    auto stats = ShardedIngest(Span<const uint64_t>(trace),
                               Config(threads, ShardMode::kKeyPartitioned),
                               sharded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_LE(sharded.size(), kCapacity);
    for (const auto& [key, count] : truth) {
      EXPECT_GE(sharded.Estimate(key), count) << "threads=" << threads;
    }
  }
}

TEST(ShardedIngestTest, RejectsInvalidConfig) {
  const auto trace = MakeTrace(100, 50, 19, nullptr);
  sketch::CountMinSketch sketch(64, 2, 1);
  EXPECT_FALSE(ShardedIngest(Span<const uint64_t>(trace),
                             Config(2, ShardMode::kReplicated, 0), sketch)
                   .ok());
}

TEST(ShardedIngestTest, EmptyTraceIsANoOp) {
  std::vector<uint64_t> empty;
  sketch::CountMinSketch sketch(64, 2, 1);
  auto stats = ShardedIngest(Span<const uint64_t>(empty),
                             Config(4, ShardMode::kReplicated), sketch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_items, 0u);
  EXPECT_EQ(sketch.total_count(), 0u);
}

TEST(ShardedIngestCustomTest, VectorAccumulatorsSumExactly) {
  // The CLI's OptHashEstimator path in miniature: per-worker count
  // vectors merged by addition must equal exact sequential counts.
  constexpr size_t kUniverse = 200;
  std::unordered_map<uint64_t, uint64_t> truth;
  const auto trace = MakeTrace(20000, kUniverse, 21, &truth);

  for (size_t threads = 1; threads <= 4; ++threads) {
    std::vector<uint64_t> counts(kUniverse + 1, 0);
    auto stats = ShardedIngestCustom(
        Span<const uint64_t>(trace), Config(threads, ShardMode::kReplicated),
        [](size_t) { return std::vector<uint64_t>(kUniverse + 1, 0); },
        [](std::vector<uint64_t>& replica, size_t /*worker*/,
           Span<const uint64_t> block) {
          for (uint64_t key : block) ++replica[key];
        },
        [&counts](std::vector<uint64_t>& replica) {
          for (size_t i = 0; i < counts.size(); ++i) counts[i] += replica[i];
          return Status::OK();
        });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (const auto& [key, count] : truth) {
      EXPECT_EQ(counts[key], count) << "threads=" << threads;
    }
  }
}

TEST(ShardedIngestCustomTest, MergeFailurePropagates) {
  const auto trace = MakeTrace(100, 50, 23, nullptr);
  auto stats = ShardedIngestCustom(
      Span<const uint64_t>(trace), Config(2, ShardMode::kReplicated),
      [](size_t) { return 0; }, [](int&, size_t, Span<const uint64_t>) {},
      [](int&) { return Status::Internal("merge exploded"); });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
}

TEST(OptHashShardedApplyTest, DeltaPathMatchesSequentialUpdates) {
  // Train a tiny estimator, then apply the same stream once via Update and
  // once via Ingest, the sharded AccumulateUpdates/ApplyBucketDeltas path.
  std::vector<core::PrefixElement> prefix;
  Rng feature_rng(1);
  for (size_t i = 0; i < 10; ++i) {
    prefix.push_back({.id = 1000 + i,
                      .frequency = 100.0 + static_cast<double>(i % 3),
                      .features = {5.0 + feature_rng.NextGaussian() * 0.2}});
  }
  for (size_t i = 0; i < 15; ++i) {
    prefix.push_back({.id = 2000 + i,
                      .frequency = 2.0 + static_cast<double>(i % 2),
                      .features = {-5.0 + feature_rng.NextGaussian() * 0.2}});
  }
  core::OptHashConfig config;
  config.total_buckets = 40;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  auto sequential = core::OptHashEstimator::Train(config, prefix);
  auto sharded = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(sequential.ok() && sharded.ok());

  // A stream hitting both stored and unseen ids.
  std::vector<uint64_t> stream;
  Rng rng(25);
  for (size_t t = 0; t < 5000; ++t) {
    stream.push_back(rng.NextBounded(2) == 0 ? 1000 + rng.NextBounded(10)
                                             : 2000 + rng.NextBounded(20));
  }
  for (uint64_t id : stream) sequential.value().Update({id, nullptr});

  for (size_t threads = 1; threads <= 4; ++threads) {
    auto fresh = core::OptHashEstimator::Train(config, prefix);
    ASSERT_TRUE(fresh.ok());
    core::OptHashEstimator& estimator = fresh.value();
    auto stats = estimator.Ingest(Span<const uint64_t>(stream),
                                  Config(threads, ShardMode::kReplicated));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    for (size_t j = 0; j < estimator.num_buckets(); ++j) {
      EXPECT_DOUBLE_EQ(estimator.BucketFrequency(j),
                       sequential.value().BucketFrequency(j))
          << "threads=" << threads << " bucket=" << j;
    }
  }
}

// A key-partitioned config hands every block to every worker; the
// estimator's ingest must still count each arrival once.
TEST(OptHashShardedApplyTest, KeyPartitionedConfigCountsEachArrivalOnce) {
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < 20; ++i) {
    prefix.push_back({.id = 100 + i,
                      .frequency = 10.0 + static_cast<double>(i),
                      .features = {1.0}});
  }
  core::OptHashConfig config;
  config.total_buckets = 30;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  auto replicated = core::OptHashEstimator::Train(config, prefix);
  auto partitioned = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(replicated.ok() && partitioned.ok());
  std::vector<uint64_t> stream;
  for (uint64_t t = 0; t < 1000; ++t) stream.push_back(90 + t % 40);
  ASSERT_TRUE(replicated.value()
                  .Ingest(Span<const uint64_t>(stream),
                          Config(4, ShardMode::kReplicated, 64))
                  .ok());
  ASSERT_TRUE(partitioned.value()
                  .Ingest(Span<const uint64_t>(stream),
                          Config(4, ShardMode::kKeyPartitioned, 64))
                  .ok());
  for (size_t j = 0; j < replicated.value().num_buckets(); ++j) {
    EXPECT_EQ(partitioned.value().BucketFrequency(j),
              replicated.value().BucketFrequency(j))
        << "bucket " << j;
  }
}

TEST(OptHashShardedApplyTest, ApplyBucketDeltasRejectsWrongSize) {
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < 10; ++i) {
    prefix.push_back({.id = i, .frequency = 5.0, .features = {1.0}});
  }
  core::OptHashConfig config;
  config.total_buckets = 30;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  auto estimator = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(estimator.ok());
  std::vector<double> wrong(estimator.value().num_buckets() + 1, 0.0);
  EXPECT_FALSE(estimator.value().ApplyBucketDeltas(wrong).ok());
}

}  // namespace
}  // namespace opthash::stream
