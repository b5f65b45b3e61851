#include "ml/decision_tree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"

namespace opthash::ml {
namespace {

Dataset XorDataset(size_t per_quadrant, uint64_t seed) {
  // XOR is not linearly separable: a tree needs depth >= 2.
  Rng rng(seed);
  Dataset data(2);
  for (size_t i = 0; i < per_quadrant; ++i) {
    for (int sx : {-1, 1}) {
      for (int sy : {-1, 1}) {
        const double x = sx * (1.0 + rng.NextDouble());
        const double y = sy * (1.0 + rng.NextDouble());
        data.Add({x, y}, (sx * sy > 0) ? 1 : 0);
      }
    }
  }
  return data;
}

TEST(DecisionTreeTest, FitsXorPerfectly) {
  const Dataset data = XorDataset(30, 1);
  DecisionTree tree;
  tree.Fit(data);
  const std::vector<int> predictions = tree.PredictBatch(data);
  EXPECT_DOUBLE_EQ(Accuracy(data.labels(), predictions), 1.0);
  EXPECT_GE(tree.Depth(), 2u);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  Dataset data(1);
  data.Add({0.0}, 0);
  data.Add({1.0}, 1);
  data.Add({2.0}, 1);
  DecisionTreeConfig config;
  config.max_depth = 0;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.Predict({0.0}), 1);
  EXPECT_EQ(tree.Predict({5.0}), 1);
}

TEST(DecisionTreeTest, MaxDepthBoundsTree) {
  const Dataset data = XorDataset(40, 2);
  for (size_t depth : {1u, 2u, 3u, 5u}) {
    DecisionTreeConfig config;
    config.max_depth = depth;
    DecisionTree tree(config);
    tree.Fit(data);
    EXPECT_LE(tree.Depth(), depth);
  }
}

TEST(DecisionTreeTest, MinImpurityDecreasePrunes) {
  const Dataset data = XorDataset(30, 3);
  DecisionTreeConfig lax;
  DecisionTreeConfig strict;
  strict.min_impurity_decrease = 0.6;  // Larger than any achievable gain.
  DecisionTree lax_tree(lax);
  DecisionTree strict_tree(strict);
  lax_tree.Fit(data);
  strict_tree.Fit(data);
  EXPECT_GT(lax_tree.NodeCount(), strict_tree.NodeCount());
  EXPECT_EQ(strict_tree.NodeCount(), 1u);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.Add({static_cast<double>(i)}, i < 5 ? 0 : 1);
  }
  // With min_samples_leaf = 6, every possible split of 10 examples leaves
  // one side below the minimum, so even this perfectly splittable data must
  // stay a stump.
  DecisionTreeConfig config;
  config.min_samples_leaf = 6;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_EQ(tree.NodeCount(), 1u);

  // With min_samples_leaf = 5, the balanced 5/5 split is allowed.
  DecisionTreeConfig relaxed;
  relaxed.min_samples_leaf = 5;
  DecisionTree relaxed_tree(relaxed);
  relaxed_tree.Fit(data);
  EXPECT_EQ(relaxed_tree.NodeCount(), 3u);
}

TEST(DecisionTreeTest, PureNodeStopsSplitting) {
  Dataset data(2);
  for (int i = 0; i < 20; ++i) {
    data.Add({static_cast<double>(i), static_cast<double>(-i)}, 3);
  }
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.Predict({100.0, 100.0}), 3);
}

TEST(DecisionTreeTest, FeatureImportancesIdentifyInformativeFeature) {
  Rng rng(4);
  Dataset data(3);
  for (int i = 0; i < 200; ++i) {
    const double informative = rng.NextGaussian();
    data.Add({rng.NextGaussian(), informative, rng.NextGaussian()},
             informative > 0 ? 1 : 0);
  }
  DecisionTree tree;
  tree.Fit(data);
  const std::vector<double> importances = tree.FeatureImportances();
  ASSERT_EQ(importances.size(), 3u);
  EXPECT_GT(importances[1], importances[0]);
  EXPECT_GT(importances[1], importances[2]);
  double total = importances[0] + importances[1] + importances[2];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DecisionTreeTest, TiedFeatureValuesHandled) {
  Dataset data(1);
  data.Add({1.0}, 0);
  data.Add({1.0}, 1);
  data.Add({1.0}, 0);
  DecisionTree tree;
  tree.Fit(data);  // No split possible on a constant feature.
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.Predict({1.0}), 0);
}

TEST(DecisionTreeTest, MaxFeaturesSubsampling) {
  const Dataset data = XorDataset(30, 5);
  DecisionTreeConfig config;
  config.max_features = 1;
  config.seed = 99;
  DecisionTree tree(config);
  tree.Fit(data);
  // Tree still trains (possibly deeper than with both features available).
  const std::vector<int> predictions = tree.PredictBatch(data);
  EXPECT_GE(Accuracy(data.labels(), predictions), 0.9);
}

TEST(DecisionTreeTest, DeterministicGivenConfig) {
  const Dataset data = XorDataset(20, 6);
  DecisionTree a;
  DecisionTree b;
  a.Fit(data);
  b.Fit(data);
  EXPECT_EQ(a.NodeCount(), b.NodeCount());
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(a.Predict(data.Features(i)), b.Predict(data.Features(i)));
  }
}

// Split search scores only the boundaries between distinct feature
// values, so how rows sharing a value are ordered must not reach the
// tree. Four features with two to four distinct small values each and
// eleven labels loosely tied to them give long runs of equal values with
// many labels inside each run.
TEST(DecisionTreeTest, RowOrderWithinTiedValuesDoesNotChangeTheTree) {
  Rng rng(11);
  Dataset data(4);
  for (size_t i = 0; i < 400; ++i) {
    const double a = static_cast<double>(rng.NextBounded(4));
    const double b = static_cast<double>(rng.NextBounded(3));
    const double c = static_cast<double>(rng.NextBounded(2) * 2);
    const double d = static_cast<double>(rng.NextBounded(4));
    const auto label =
        static_cast<int>((a * 3 + b + rng.NextBounded(3)) * 12 / 15);
    data.Add({a, b, c, d}, label);
  }
  std::vector<size_t> order(data.NumExamples());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  const Dataset permuted = data.Subset(order);

  DecisionTreeConfig leaf_config;
  leaf_config.min_samples_leaf = 3;
  DecisionTreeConfig features_config;
  features_config.max_features = 2;
  for (const DecisionTreeConfig& config :
       {DecisionTreeConfig{}, leaf_config, features_config}) {
    DecisionTree original(config);
    DecisionTree reordered(config);
    original.Fit(data);
    reordered.Fit(permuted);
    EXPECT_GT(original.NodeCount(), 7u);
    EXPECT_EQ(original.Serialize(), reordered.Serialize());
  }
}

class TreeDepthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TreeDepthSweep, TrainAccuracyNonDecreasingInDepth) {
  const Dataset data = XorDataset(40, 7);
  DecisionTreeConfig shallow_config;
  shallow_config.max_depth = GetParam();
  DecisionTreeConfig deeper_config;
  deeper_config.max_depth = GetParam() + 2;
  DecisionTree shallow(shallow_config);
  DecisionTree deeper(deeper_config);
  shallow.Fit(data);
  deeper.Fit(data);
  EXPECT_GE(Accuracy(data.labels(), deeper.PredictBatch(data)),
            Accuracy(data.labels(), shallow.PredictBatch(data)) - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace opthash::ml
