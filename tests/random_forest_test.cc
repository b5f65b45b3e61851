#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/metrics.h"
#include "split_search_data.h"

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

// Forest byte goldens, captured from the dense split search that fitted
// each tree on its bootstrap sample copied out with Dataset::Subset.
TEST(RandomForestTest, SplitSearchForestPinned) {
  RandomForestConfig config;
  config.num_trees = 3;
  config.seed = 31;
  RandomForest forest(config);
  forest.Fit(MixedColumnsDataset(40, 30));
  EXPECT_EQ(forest.Serialize(), R"(opthash.rf.v1 4 6 3
opthash.cart.v1 6 4 9
0 5 0.5 1 4 0 7.5833333333333375 40
0 0 0 2 3 0 8.470588235294116 25
1 0 0 -1 -1 2 0 8
1 0 0 -1 -1 0 0 17
0 2 -0.26619135827890172 5 6 1 4.62222222222222 15
1 0 0 -1 -1 1 0 6
0 5 2.5 7 8 3 3.1111111111111107 9
1 0 0 -1 -1 3 0 6
1 0 0 -1 -1 2 0 3
opthash.cart.v1 6 4 15
0 5 0.5 1 14 1 9.0583333333333353 40
0 0 -0.5 2 7 0 3.2500000000000004 24
0 1 -0.75 3 4 2 0.16666666666666607 6
1 0 0 -1 -1 2 0 2
0 1 0.75 5 6 2 0.5 4
1 0 0 -1 -1 1 0 2
1 0 0 -1 -1 2 0 2
0 2 0.081984300344523212 8 9 0 2.5454545454545441 18
1 0 0 -1 -1 0 0 7
0 2 0.17689729468368093 10 11 2 3.7878787878787894 11
1 0 0 -1 -1 2 0 5
0 2 0.72376309192142818 12 13 0 0.66666666666666607 6
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 0 0 2
1 0 0 -1 -1 1 0 16
opthash.cart.v1 6 4 31
0 1 0.75 1 28 2 2.2234767025089575 40
0 2 0.92085320661202785 2 25 2 3.4843010752688226 31
0 0 0.5 3 10 2 1.9797402597402618 25
0 5 0.5 4 9 2 1.6545454545454534 11
0 2 0.18975427184100901 5 6 2 0.20000000000000018 10
1 0 0 -1 -1 2 0 5
0 2 0.33765271266973612 7 8 2 1.5999999999999992 5
1 0 0 -1 -1 0 0 1
1 0 0 -1 -1 2 0 4
1 0 0 -1 -1 1 0 1
0 0 2.5 11 22 0 0.86147186147186017 14
0 5 0.5 12 17 0 2.7337662337662345 11
0 2 -0.17301571821414122 13 14 0 1.5238095238095239 7
1 0 0 -1 -1 0 0 4
0 2 0.33511295511424177 15 16 2 1.3333333333333333 3
1 0 0 -1 -1 2 0 2
1 0 0 -1 -1 0 0 1
0 5 1.5 18 19 1 0.5 4
1 0 0 -1 -1 1 0 2
0 0 1.5 20 21 1 1 2
1 0 0 -1 -1 2 0 1
1 0 0 -1 -1 1 0 1
0 2 -0.20019099939802515 23 24 2 1.3333333333333333 3
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 2 0 2
0 5 1 26 27 1 1.6666666666666661 6
1 0 0 -1 -1 0 0 1
1 0 0 -1 -1 1 0 5
0 2 0.36426044566776483 29 30 0 2.412698412698413 9
1 0 0 -1 -1 0 0 7
1 0 0 -1 -1 3 0 2
)");
}

TEST(RandomForestTest, SplitSearchForestMinSamplesLeafPinned) {
  RandomForestConfig config;
  config.num_trees = 3;
  config.max_features = 3;
  config.min_samples_leaf = 3;
  config.seed = 33;
  RandomForest forest(config);
  forest.Fit(MixedColumnsDataset(40, 32));
  EXPECT_EQ(forest.Serialize(), R"(opthash.rf.v1 4 6 3
opthash.cart.v1 6 4 13
0 0 -0.5 1 4 2 7.1083333333333387 40
0 5 0.5 2 3 2 11.666666666666664 24
1 0 0 -1 -1 2 0 14
1 0 0 -1 -1 3 0 10
0 5 0.5 5 8 1 3.6210317460317469 16
0 0 1.5 6 7 0 0.30952380952380948 7
1 0 0 -1 -1 0 0 3
1 0 0 -1 -1 0 0 4
0 0 1 9 10 1 0.44444444444444442 9
1 0 0 -1 -1 1 0 3
0 2 -0.67062397459205758 11 12 1 1.3333333333333333 6
1 0 0 -1 -1 1 0 3
1 0 0 -1 -1 3 0 3
opthash.cart.v1 6 4 9
0 5 0.5 1 6 2 8.0598901098901123 40
0 0 0.5 2 3 2 9.5384615384615383 26
1 0 0 -1 -1 2 0 13
0 2 -0.57189049814230675 4 5 0 3.5897435897435894 13
1 0 0 -1 -1 3 0 3
1 0 0 -1 -1 0 0 10
0 0 -0.5 7 8 3 6.4285714285714279 14
1 0 0 -1 -1 3 0 9
1 0 0 -1 -1 1 0 5
opthash.cart.v1 6 4 17
0 1 0.75 1 14 2 1.3365591397849474 40
0 1 -0.75 2 7 2 1.6406338426711957 31
0 0 0 3 6 1 4.3333333333333339 12
0 2 -0.52673647654773936 4 5 2 0.33333333333333282 6
1 0 0 -1 -1 2 0 3
1 0 0 -1 -1 2 0 3
1 0 0 -1 -1 1 0 6
0 5 0.5 8 11 3 5.1450292397660817 19
0 2 -0.67339192671253068 9 10 0 0.54444444444444406 9
1 0 0 -1 -1 2 0 5
1 0 0 -1 -1 0 0 4
0 0 0 12 13 3 4.2000000000000002 10
1 0 0 -1 -1 3 0 7
1 0 0 -1 -1 1 0 3
0 2 -0.69615737578652448 15 16 2 1.0666666666666678 9
1 0 0 -1 -1 2 0 4
1 0 0 -1 -1 2 0 5
)");
}

TEST(RandomForestTest, NameIsRf) {
  RandomForest forest;
  EXPECT_STREQ(forest.Name(), "rf");
}

}  // namespace
}  // namespace opthash::ml
