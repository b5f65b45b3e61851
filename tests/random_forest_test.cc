#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/metrics.h"

namespace opthash::ml {
namespace {

Dataset NoisyBlobs(size_t per_class, size_t num_classes, double noise,
                   uint64_t seed) {
  Rng rng(seed);
  Dataset data(4);
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      const double base = static_cast<double>(c) * 3.0;
      data.Add({base + noise * rng.NextGaussian(),
                base + noise * rng.NextGaussian(), rng.NextGaussian(),
                rng.NextGaussian()},
               static_cast<int>(c));
    }
  }
  return data;
}

TEST(RandomForestTest, FitsNoisyMulticlassData) {
  const Dataset data = NoisyBlobs(60, 4, 0.6, 1);
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.Fit(data);
  EXPECT_GE(Accuracy(data.labels(), forest.PredictBatch(data)), 0.97);
  EXPECT_EQ(forest.NumTrees(), 20u);
}

TEST(RandomForestTest, MoreTreesMoreStable) {
  // Prediction disagreement between two forests with different seeds should
  // shrink as the ensemble grows.
  const Dataset data = NoisyBlobs(50, 3, 1.2, 2);
  auto disagreement = [&](size_t trees) {
    RandomForestConfig c1;
    c1.num_trees = trees;
    c1.seed = 100;
    RandomForestConfig c2 = c1;
    c2.seed = 200;
    RandomForest f1(c1);
    RandomForest f2(c2);
    f1.Fit(data);
    f2.Fit(data);
    size_t differences = 0;
    for (size_t i = 0; i < data.NumExamples(); ++i) {
      if (f1.Predict(data.Features(i)) != f2.Predict(data.Features(i))) {
        ++differences;
      }
    }
    return differences;
  };
  EXPECT_LE(disagreement(40), disagreement(1) + 2);
}

TEST(RandomForestTest, FeatureImportancesFavorInformativeFeatures) {
  const Dataset data = NoisyBlobs(80, 3, 0.5, 3);
  RandomForestConfig config;
  config.num_trees = 15;
  RandomForest forest(config);
  forest.Fit(data);
  const std::vector<double> importances = forest.FeatureImportances();
  ASSERT_EQ(importances.size(), 4u);
  // Features 0 and 1 encode the class; 2 and 3 are pure noise.
  EXPECT_GT(importances[0] + importances[1],
            importances[2] + importances[3]);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset data = NoisyBlobs(30, 3, 0.8, 4);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 77;
  RandomForest a(config);
  RandomForest b(config);
  a.Fit(data);
  b.Fit(data);
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(a.Predict(data.Features(i)), b.Predict(data.Features(i)));
  }
}

TEST(RandomForestTest, SingleTreeForestStillWorks) {
  const Dataset data = NoisyBlobs(40, 2, 0.4, 5);
  RandomForestConfig config;
  config.num_trees = 1;
  RandomForest forest(config);
  forest.Fit(data);
  EXPECT_GE(Accuracy(data.labels(), forest.PredictBatch(data)), 0.9);
}

TEST(RandomForestTest, MaxFeaturesDefaultsToSqrt) {
  const Dataset data = NoisyBlobs(30, 2, 0.5, 6);
  RandomForestConfig config;
  config.max_features = 0;  // floor(sqrt(4)) = 2.
  RandomForest forest(config);
  forest.Fit(data);  // Smoke: trains without error, predicts valid labels.
  const int label = forest.Predict(data.Features(0));
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 2);
}

// The forest's trees, rebuilt on their own from its text serialization,
// so the reference vote below does not go through RandomForest at all.
std::vector<DecisionTree> TreesOf(const RandomForest& forest) {
  std::istringstream in(forest.Serialize());
  std::string magic;
  size_t num_classes = 0;
  size_t num_features = 0;
  size_t num_trees = 0;
  in >> magic >> num_classes >> num_features >> num_trees;
  std::vector<DecisionTree> trees;
  for (size_t t = 0; t < num_trees; ++t) {
    auto tree = DecisionTree::DeserializeFrom(in);
    EXPECT_TRUE(tree.ok());
    trees.push_back(std::move(tree).value());
  }
  return trees;
}

// Per-class vote counts: the smallest label among the most-voted wins.
std::vector<size_t> Votes(const std::vector<DecisionTree>& trees,
                          size_t num_classes, const std::vector<double>& row) {
  std::vector<size_t> votes(num_classes, 0);
  for (const DecisionTree& tree : trees) {
    ++votes[static_cast<size_t>(tree.Predict(row))];
  }
  return votes;
}

TEST(RandomForestTest, PredictRowMatchesPerClassVoteCount) {
  // Few trees over many overlapping classes: votes split often, so the
  // random rows include plenty of ties between the top labels.
  const Dataset data = NoisyBlobs(40, 6, 2.5, 8);
  Rng rng(9);
  size_t ties = 0;
  for (const size_t num_trees : {2u, 3u, 4u, 7u, 30u}) {
    RandomForestConfig config;
    config.num_trees = num_trees;
    config.seed = 40 + num_trees;
    RandomForest forest(config);
    forest.Fit(data);
    const std::vector<DecisionTree> trees = TreesOf(forest);
    ASSERT_EQ(trees.size(), num_trees);
    for (int r = 0; r < 400; ++r) {
      std::vector<double> row(4);
      for (double& x : row) x = 8.0 * rng.NextGaussian();
      const std::vector<size_t> votes =
          Votes(trees, forest.NumClasses(), row);
      const auto top = std::max_element(votes.begin(), votes.end());
      ties += std::count(votes.begin(), votes.end(), *top) > 1;
      ASSERT_EQ(forest.PredictRow(row.data()),
                static_cast<int>(top - votes.begin()))
          << num_trees << " trees, row " << r;
    }
  }
  EXPECT_GT(ties, 0u);
}

TEST(RandomForestTest, PredictRowBreaksTiesTowardSmallestLabel) {
  // Single-leaf trees vote fixed labels, whatever the row.
  const auto forest_of = [](const std::vector<int>& labels) {
    std::string blob = "opthash.rf.v1 8 1 " + std::to_string(labels.size()) +
                       "\n";
    for (const int label : labels) {
      blob += "opthash.cart.v1 1 8 1\n1 0 0 -1 -1 " + std::to_string(label) +
              " 0 1\n";
    }
    auto forest = RandomForest::Deserialize(blob);
    EXPECT_TRUE(forest.ok()) << forest.status().ToString();
    return std::move(forest).value();
  };
  const double row[] = {0.0};
  EXPECT_EQ(forest_of({3, 1}).PredictRow(row), 1);
  EXPECT_EQ(forest_of({5, 2, 5, 2, 7}).PredictRow(row), 2);
  EXPECT_EQ(forest_of({7, 6, 6, 7, 0}).PredictRow(row), 6);
  EXPECT_EQ(forest_of({4, 0, 4}).PredictRow(row), 4);
  EXPECT_EQ(forest_of({7}).PredictRow(row), 7);
}

TEST(RandomForestTest, NameIsRf) {
  RandomForest forest;
  EXPECT_STREQ(forest.Name(), "rf");
}

}  // namespace
}  // namespace opthash::ml
