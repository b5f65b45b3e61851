// Batch == scalar equivalence for the whole read side (PR 4): for every
// FrequencyEstimator, every point-query sketch, and both zero-copy mapped
// views, EstimateBatch over a randomized query set must be element-wise
// identical to a loop of Estimate — including the empty-batch and
// single-item edges. Also covers the base-class default loop (external
// implementations that never override EstimateBatch) and the
// BundleQueryEngine block pipeline.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact_test_util.h"
#include "common/random.h"
#include "common/span.h"
#include "core/adaptive_estimator.h"
#include "core/baseline_estimators.h"
#include "core/opt_hash_estimator.h"
#include "io/model_io.h"
#include "io/sketch_snapshot.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/learned_count_min.h"
#include "sketch/misra_gries.h"
#include "sketch/space_saving.h"
#include "stream/features.h"

namespace opthash {
namespace {

using core::AdaptiveConfig;
using core::AdaptiveOptHashEstimator;
using core::ClassifierKind;
using core::CountMinEstimator;
using core::CountSketchEstimator;
using core::FrequencyEstimator;
using core::LearnedCmsEstimator;
using core::OptHashConfig;
using core::OptHashEstimator;
using core::OptHashQueryWorkspace;
using core::PrefixElement;
using core::SolverKind;
using stream::StreamItem;

// Key universes: stream keys overlap the query keys only partially, so
// batches mix hot, cold and never-seen ids.
std::vector<uint64_t> MakeKeys(size_t count, uint64_t seed, uint64_t range) {
  Rng rng(seed);
  std::vector<uint64_t> keys(count);
  for (auto& key : keys) key = rng.NextBounded(range);
  return keys;
}

// Asserts batch == scalar for one estimator over `items`, including the
// empty and single-item edges.
void ExpectBatchMatchesScalar(const FrequencyEstimator& estimator,
                              const std::vector<StreamItem>& items) {
  std::vector<double> batch(items.size(), -1.0);
  estimator.EstimateBatch(
      Span<const StreamItem>(items.data(), items.size()),
      Span<double>(batch.data(), batch.size()));
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(batch[i], estimator.Estimate(items[i])) << "index " << i;
  }
  // Empty batch: a no-op that must not touch anything.
  estimator.EstimateBatch(Span<const StreamItem>(),
                          Span<double>());
  // Single-item batches across the set.
  for (size_t i = 0; i < items.size(); i += 37) {
    double one = -1.0;
    estimator.EstimateBatch(Span<const StreamItem>(&items[i], 1),
                            Span<double>(&one, 1));
    EXPECT_EQ(one, estimator.Estimate(items[i]));
  }
}

std::vector<StreamItem> ItemsOf(const std::vector<uint64_t>& keys) {
  std::vector<StreamItem> items;
  items.reserve(keys.size());
  for (uint64_t key : keys) items.push_back({key, nullptr});
  return items;
}

TEST(EstimateBatchTest, CountMinEstimatorMatchesScalar) {
  CountMinEstimator estimator(1024, 4, 7);
  for (uint64_t key : MakeKeys(5000, 1, 600)) estimator.Update({key, nullptr});
  ExpectBatchMatchesScalar(estimator, ItemsOf(MakeKeys(997, 2, 900)));
}

TEST(EstimateBatchTest, ConservativeCountMinEstimatorMatchesScalar) {
  CountMinEstimator estimator(1024, 4, 7, /*conservative_update=*/true);
  for (uint64_t key : MakeKeys(5000, 3, 600)) estimator.Update({key, nullptr});
  ExpectBatchMatchesScalar(estimator, ItemsOf(MakeKeys(997, 4, 900)));
}

TEST(EstimateBatchTest, CountSketchEstimatorMatchesScalar) {
  CountSketchEstimator estimator(1024, 5, 11);
  for (uint64_t key : MakeKeys(5000, 5, 600)) estimator.Update({key, nullptr});
  ExpectBatchMatchesScalar(estimator, ItemsOf(MakeKeys(997, 6, 900)));
}

TEST(EstimateBatchTest, LearnedCmsEstimatorMatchesScalar) {
  auto estimator =
      LearnedCmsEstimator::Create(1024, 4, {1, 2, 3, 50, 51, 52}, 13);
  ASSERT_TRUE(estimator.ok());
  for (uint64_t key : MakeKeys(5000, 7, 600)) {
    estimator.value().Update({key, nullptr});
  }
  ExpectBatchMatchesScalar(estimator.value(), ItemsOf(MakeKeys(997, 8, 900)));
}

// Trained opt-hash estimator with two separable frequency tiers.
OptHashEstimator TrainedEstimator(ClassifierKind classifier) {
  Rng rng(17);
  std::vector<PrefixElement> prefix;
  for (size_t i = 0; i < 12; ++i) {
    prefix.push_back({.id = 1000 + i,
                      .frequency = 100.0 + static_cast<double>(i % 3),
                      .features = {5.0 + rng.NextGaussian() * 0.2,
                                   rng.NextGaussian()}});
  }
  for (size_t i = 0; i < 18; ++i) {
    prefix.push_back({.id = 2000 + i,
                      .frequency = 2.0 + static_cast<double>(i % 2),
                      .features = {-5.0 + rng.NextGaussian() * 0.2,
                                   rng.NextGaussian()}});
  }
  OptHashConfig config;
  config.total_buckets = 40;
  config.id_ratio = 0.3;
  config.solver = SolverKind::kDp;
  config.classifier = classifier;
  config.rf.num_trees = 5;
  auto trained = OptHashEstimator::Train(config, prefix);
  OPTHASH_CHECK(trained.ok());
  return std::move(trained).value();
}

// Query mix: stored ids without features, stored ids with features,
// unseen ids with features (classifier route), unseen without features.
std::vector<StreamItem> MixedQueries(
    std::vector<std::vector<double>>& feature_store) {
  Rng rng(23);
  feature_store.clear();
  feature_store.reserve(400);
  std::vector<StreamItem> items;
  for (size_t i = 0; i < 400; ++i) {
    const uint64_t id = 900 + rng.NextBounded(1400);
    if (i % 3 == 0) {
      items.push_back({id, nullptr});
      continue;
    }
    feature_store.push_back(
        {rng.NextDouble(-6.0, 6.0), rng.NextGaussian()});
    items.push_back({id, &feature_store.back()});
  }
  return items;
}

TEST(EstimateBatchTest, OptHashMatchesScalarAcrossClassifiers) {
  for (const ClassifierKind kind :
       {ClassifierKind::kNone, ClassifierKind::kLogisticRegression,
        ClassifierKind::kCart, ClassifierKind::kRandomForest}) {
    const OptHashEstimator estimator = TrainedEstimator(kind);
    std::vector<std::vector<double>> feature_store;
    const std::vector<StreamItem> items = MixedQueries(feature_store);
    ExpectBatchMatchesScalar(estimator, items);
    // The caller-provided-workspace overload answers identically too.
    OptHashQueryWorkspace workspace;
    std::vector<double> batch(items.size());
    estimator.EstimateBatch(Span<const StreamItem>(items.data(), items.size()),
                            Span<double>(batch.data(), batch.size()),
                            workspace);
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(batch[i], estimator.Estimate(items[i]));
    }
  }
}

TEST(EstimateBatchTest, AdaptiveOptHashMatchesScalar) {
  AdaptiveConfig config;
  config.expected_distinct = 4000;
  std::vector<uint64_t> prefix_ids;
  for (uint64_t id = 1000; id < 1012; ++id) prefix_ids.push_back(id);
  for (uint64_t id = 2000; id < 2018; ++id) prefix_ids.push_back(id);
  AdaptiveOptHashEstimator estimator(
      TrainedEstimator(ClassifierKind::kCart), config, prefix_ids);
  std::vector<std::vector<double>> stream_store;
  for (const StreamItem& item : MixedQueries(stream_store)) {
    estimator.Update(item);
  }
  std::vector<std::vector<double>> feature_store;
  ExpectBatchMatchesScalar(estimator, MixedQueries(feature_store));
}

// External implementations that never override EstimateBatch get the
// base-class loop.
class MinimalEstimator : public FrequencyEstimator {
 public:
  void Update(const StreamItem& item) override { count_ += item.id; }
  double Estimate(const StreamItem& item) const override {
    return static_cast<double>(item.id % 7);
  }
  size_t MemoryBuckets() const override { return 1; }
  const char* Name() const override { return "minimal"; }

 private:
  uint64_t count_ = 0;
};

TEST(EstimateBatchTest, DefaultLoopFallbackMatchesScalar) {
  MinimalEstimator estimator;
  ExpectBatchMatchesScalar(estimator, ItemsOf(MakeKeys(97, 31, 1000)));
}

// ---- Sketch-level batch queries. ----------------------------------------

template <typename Sketch, typename Out>
void ExpectSketchBatchMatchesScalar(const Sketch& sketch,
                                    const std::vector<uint64_t>& keys) {
  std::vector<Out> batch(keys.size());
  sketch.EstimateBatch(Span<const uint64_t>(keys.data(), keys.size()),
                       Span<Out>(batch.data(), batch.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(batch[i], sketch.Estimate(keys[i])) << "index " << i;
  }
  sketch.EstimateBatch(Span<const uint64_t>(), Span<Out>());
  Out one{};
  sketch.EstimateBatch(Span<const uint64_t>(keys.data(), 1),
                       Span<Out>(&one, 1));
  EXPECT_EQ(one, sketch.Estimate(keys.front()));
}

TEST(EstimateBatchTest, SketchBatchesMatchScalar) {
  const std::vector<uint64_t> stream = MakeKeys(6000, 41, 700);
  const std::vector<uint64_t> queries = MakeKeys(997, 42, 1000);

  sketch::CountMinSketch cms(512, 4, 3);
  cms.UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::CountMinSketch, uint64_t>(cms,
                                                                   queries);

  sketch::CountMinSketch conservative(512, 4, 3, /*conservative_update=*/true);
  conservative.UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::CountMinSketch, uint64_t>(
      conservative, queries);

  sketch::CountSketch countsketch(512, 5, 3);
  countsketch.UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::CountSketch, int64_t>(countsketch,
                                                               queries);
  {
    std::vector<uint64_t> clamped(queries.size());
    countsketch.EstimateNonNegativeBatch(
        Span<const uint64_t>(queries.data(), queries.size()),
        Span<uint64_t>(clamped.data(), clamped.size()));
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(clamped[i], countsketch.EstimateNonNegative(queries[i]));
    }
  }

  auto lcms =
      sketch::LearnedCountMinSketch::Create(1024, 4, {5, 6, 7, 100}, 9);
  ASSERT_TRUE(lcms.ok());
  lcms.value().UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::LearnedCountMinSketch, uint64_t>(
      lcms.value(), queries);

  sketch::MisraGries mg(64);
  mg.UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::MisraGries, uint64_t>(mg, queries);

  sketch::SpaceSaving ss(64);
  ss.UpdateBatch(stream);
  ExpectSketchBatchMatchesScalar<sketch::SpaceSaving, uint64_t>(ss, queries);
}

// ---- Mapped views. -------------------------------------------------------

TEST(EstimateBatchTest, MappedCountMinViewMatchesScalarAndOwned) {
  sketch::CountMinSketch cms(512, 4, 3);
  cms.UpdateBatch(MakeKeys(6000, 43, 700));
  const std::string path =
      ::testing::TempDir() + "/estimate_batch_cms.bin";
  ASSERT_TRUE(io::SaveSketchSnapshot(path, cms).ok());
  auto view = io::testutil::OpenArtifactAs<io::MappedCountMinView>(
      path, /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  const std::vector<uint64_t> queries = MakeKeys(997, 44, 1000);
  std::vector<uint64_t> batch(queries.size());
  view.value().EstimateBatch(
      Span<const uint64_t>(queries.data(), queries.size()),
      Span<uint64_t>(batch.data(), batch.size()));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch[i], view.value().Estimate(queries[i]));
    ASSERT_EQ(batch[i], cms.Estimate(queries[i]));
  }
  view.value().EstimateBatch(Span<const uint64_t>(), Span<uint64_t>());
  uint64_t one = 0;
  view.value().EstimateBatch(Span<const uint64_t>(queries.data(), 1),
                             Span<uint64_t>(&one, 1));
  EXPECT_EQ(one, view.value().Estimate(queries.front()));
}

TEST(EstimateBatchTest, MappedEstimatorViewMatchesScalarAndOwned) {
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(16);
  bundle.featurizer.Fit({{"alpha beta", 3.0}, {"gamma", 1.0}});
  // The classifier must read the featurizer's rows: the mapped open
  // rejects any other, as the full load does.
  std::vector<PrefixElement> prefix;
  for (size_t i = 0; i < 30; ++i) {
    const bool heavy = i < 12;
    prefix.push_back({.id = (heavy ? 1000 : 2000 - 12) + i,
                      .frequency = heavy ? 100.0 + i % 3 : 2.0 + i % 2,
                      .features = bundle.featurizer.Featurize(
                          heavy ? "alpha beta" : "gamma")});
  }
  OptHashConfig config;
  config.total_buckets = 40;
  config.id_ratio = 0.3;
  config.solver = SolverKind::kDp;
  config.classifier = ClassifierKind::kCart;
  auto trained = OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(trained.ok());
  bundle.estimator = std::move(trained).value();
  const std::string path =
      ::testing::TempDir() + "/estimate_batch_bundle.bin";
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());
  auto view = io::testutil::OpenArtifactAs<io::MappedEstimatorView>(
      path, /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  const std::vector<uint64_t> queries = MakeKeys(997, 45, 2500);
  std::vector<double> batch(queries.size());
  view.value().EstimateBatch(
      Span<const uint64_t>(queries.data(), queries.size()),
      Span<double>(batch.data(), batch.size()));
  const std::vector<double> blank = bundle.featurizer.Featurize("");
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch[i], view.value().Estimate(queries[i]));
    // Key-only semantics match the owned estimator queried with the blank
    // payload.
    ASSERT_EQ(batch[i], bundle.estimator->Estimate({queries[i], &blank}));
  }
  view.value().EstimateBatch(Span<const uint64_t>(), Span<double>());
  double one = -1.0;
  view.value().EstimateBatch(Span<const uint64_t>(queries.data(), 1),
                             Span<double>(&one, 1));
  EXPECT_EQ(one, view.value().Estimate(queries.front()));
}

// ---- BundleQueryEngine: the CLI/serving block pipeline. ------------------

TEST(EstimateBatchTest, BundleQueryEngineMatchesScalarFeaturizePath) {
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(8);
  bundle.featurizer.Fit({{"heavy heavy words", 10.0}, {"tail words", 1.0}});
  // Estimator whose feature space matches the featurizer's dimension.
  Rng rng(29);
  std::vector<PrefixElement> prefix;
  for (size_t i = 0; i < 30; ++i) {
    const bool heavy = i < 10;
    prefix.push_back(
        {.id = 100 + i,
         .frequency = heavy ? 50.0 : 2.0,
         .features = bundle.featurizer.Featurize(
             heavy ? "heavy heavy words" : "tail words run long")});
  }
  OptHashConfig config;
  config.total_buckets = 30;
  config.id_ratio = 0.5;
  config.solver = SolverKind::kDp;
  config.classifier = ClassifierKind::kCart;
  auto trained = OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(trained.ok());
  bundle.estimator = std::move(trained).value();

  std::vector<stream::TraceRecord> queries;
  for (size_t i = 0; i < 333; ++i) {
    queries.push_back({90 + rng.NextBounded(60),
                       i % 2 == 0 ? "heavy heavy words" : "tail words"});
  }
  std::vector<double> block_answers(queries.size());
  io::BundleQueryEngine engine(bundle);
  // Uneven blocks exercise the reuse across differing block sizes.
  for (const size_t block : {7u, 64u, 333u}) {
    for (size_t base = 0; base < queries.size(); base += block) {
      const size_t n = std::min(block, queries.size() - base);
      engine.EstimateBlock(
          Span<const stream::TraceRecord>(queries.data() + base, n),
          Span<double>(block_answers.data() + base, n));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::vector<double> features =
          bundle.featurizer.Featurize(queries[i].text);
      ASSERT_EQ(block_answers[i],
                bundle.estimator->Estimate({queries[i].id, &features}))
          << "block " << block << " index " << i;
    }
  }
  // Blocks mixing blank and texted rows over hits and misses: each row is
  // routed on its own (blank misses take the engine's precomputed
  // blank-payload bucket, texted misses are featurized), whatever its
  // neighbours, so every block size still matches the scalar path.
  std::vector<stream::TraceRecord> mixed;
  for (size_t i = 0; i < 333; ++i) {
    const char* text = i % 3 == 0   ? ""
                       : i % 3 == 1 ? "heavy heavy words"
                                    : "tail words";
    mixed.push_back({90 + rng.NextBounded(60), text});
  }
  std::vector<double> mixed_answers(mixed.size());
  for (const size_t block : {1u, 2u, 7u, 64u, 333u}) {
    for (size_t base = 0; base < mixed.size(); base += block) {
      const size_t n = std::min(block, mixed.size() - base);
      engine.EstimateBlock(
          Span<const stream::TraceRecord>(mixed.data() + base, n),
          Span<double>(mixed_answers.data() + base, n));
    }
    for (size_t i = 0; i < mixed.size(); ++i) {
      const std::vector<double> features =
          bundle.featurizer.Featurize(mixed[i].text);
      ASSERT_EQ(mixed_answers[i],
                bundle.estimator->Estimate({mixed[i].id, &features}))
          << "mixed block " << block << " index " << i;
    }
  }
  // Empty block edge.
  engine.EstimateBlock(Span<const stream::TraceRecord>(), Span<double>());
}

}  // namespace
}  // namespace opthash
