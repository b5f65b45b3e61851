#include "ml/decision_tree.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"
#include "split_search_data.h"

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

// Split-search byte goldens. The expected bytes were captured from the
// dense search that gathered and sorted every row of every candidate
// column; the sparse search must choose the same splits on every input
// kind, so each fitted tree serializes to the same bytes.
TEST(DecisionTreeTest, SplitSearchNegativeValuesPinned) {
  const Dataset data =
      SplitSearchDataset({SplitColumn::kSigned, SplitColumn::kCount}, 40, 21);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 2 4 17
0 0 -0.5 1 6 2 8.907894736842108 40
0 1 0.5 2 5 2 6.9959514170040498 19
0 0 -1.5 3 4 2 0.34615384615384392 13
1 0 0 -1 -1 2 0 9
1 0 0 -1 -1 2 0 4
1 0 0 -1 -1 3 0 6
0 1 0.5 7 10 0 7.0555555555555545 21
0 0 0.5 8 9 0 0.33333333333333481 12
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 0 0 8
0 0 0.5 11 12 1 0.71111111111111103 9
1 0 0 -1 -1 1 0 4
0 0 2 13 16 1 1.0666666666666667 5
0 1 2 14 15 3 0.33333333333333331 3
1 0 0 -1 -1 3 0 1
1 0 0 -1 -1 1 0 2
1 0 0 -1 -1 1 0 2
)");
}

TEST(DecisionTreeTest, SplitSearchSignedZerosPinned) {
  const Dataset data = SplitSearchDataset(
      {SplitColumn::kSignedZero, SplitColumn::kCount}, 40, 22);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 2 4 13
0 0 -0.75 1 2 0 6.0478354978354965 40
1 0 0 -1 -1 2 0 7
0 1 0.5 3 6 0 6.0606060606060606 33
0 0 0.75 4 5 0 0.11742424242424254 22
1 0 0 -1 -1 0 0 16
1 0 0 -1 -1 0 0 6
0 1 2.5 7 12 1 1.2467532467532461 11
0 0 0.75 8 11 1 0.77142857142857213 7
0 1 1.5 9 10 1 0.29999999999999971 5
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 1 0 4
1 0 0 -1 -1 0 0 2
1 0 0 -1 -1 1 0 4
)");
}

TEST(DecisionTreeTest, SplitSearchDenseColumnPinned) {
  const Dataset data =
      SplitSearchDataset({SplitColumn::kDense, SplitColumn::kCount}, 40, 23);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 2 4 25
0 0 0.0055292945357779434 1 16 2 8.7492327365728926 40
0 1 0.5 2 11 2 7.0093645484949851 23
0 0 -1.4888193452334031 3 6 2 0.72027972027971865 13
0 0 -1.7696897220066263 4 5 1 1 2
1 0 0 -1 -1 2 0 1
1 0 0 -1 -1 1 0 1
0 0 -0.20952742394188656 7 8 2 0.81818181818181945 11
1 0 0 -1 -1 2 0 9
0 0 -0.10291443144605095 9 10 2 1 2
1 0 0 -1 -1 3 0 1
1 0 0 -1 -1 2 0 1
0 0 -0.12194536714794083 12 13 3 0.79999999999999938 10
1 0 0 -1 -1 3 0 8
0 0 -0.07226255237502234 14 15 2 1 2
1 0 0 -1 -1 2 0 1
1 0 0 -1 -1 3 0 1
0 1 0.5 17 18 0 5.2100840336134429 17
1 0 0 -1 -1 0 0 10
0 0 0.50022034546015059 19 22 1 0.54285714285714315 7
0 0 0.24462020356140707 20 21 0 1 2
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 0 0 1
0 1 1.5 23 24 1 1.5999999999999992 5
1 0 0 -1 -1 3 0 1
1 0 0 -1 -1 1 0 4
)");
}

TEST(DecisionTreeTest, SplitSearchConstantColumnsPinned) {
  const Dataset data = SplitSearchDataset(
      {SplitColumn::kSigned, SplitColumn::kAllZero, SplitColumn::kCount,
       SplitColumn::kAllEqual},
      40, 24);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 4 4 15
0 2 0.5 1 10 0 9.9499999999999993 40
0 0 -0.5 2 5 0 4.4333333333333353 20
0 0 -1.5 3 4 2 0.26666666666666589 5
1 0 0 -1 -1 2 0 2
1 0 0 -1 -1 2 0 3
0 0 1.5 6 9 0 0.11666666666666534 15
0 0 0.5 7 8 0 0.41666666666666674 8
1 0 0 -1 -1 0 0 5
1 0 0 -1 -1 0 0 3
1 0 0 -1 -1 0 0 7
0 0 -0.5 11 14 1 7.2999999999999998 20
0 0 -2.5 12 13 3 1.3999999999999986 10
1 0 0 -1 -1 1 0 3
1 0 0 -1 -1 3 0 7
1 0 0 -1 -1 1 0 10
)");
}

TEST(DecisionTreeTest, SplitSearchDuplicatedRowsPinned) {
  const Dataset distinct = SplitSearchDataset(
      {SplitColumn::kSigned, SplitColumn::kCount, SplitColumn::kDense}, 20, 25);
  // Each row one to three times, the copies spread over the dataset.
  Rng rng(125);
  std::vector<size_t> rows;
  for (size_t i = 0; i < distinct.NumExamples(); ++i) {
    const uint64_t copies = 1 + rng.NextBounded(3);
    for (uint64_t copy = 0; copy < copies; ++copy) rows.push_back(i);
  }
  rng.Shuffle(rows);
  DecisionTree tree;
  tree.Fit(distinct.Subset(rows));
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 3 4 17
0 0 -0.5 1 4 0 9.1618538324420804 45
0 1 2.5 2 3 2 4.3636363636363633 11
1 0 0 -1 -1 2 0 8
1 0 0 -1 -1 3 0 3
0 1 0.5 5 16 0 7.2983193277310807 34
0 2 -1.3590481840505975 6 7 0 3.3351648351648402 28
1 0 0 -1 -1 3 0 2
0 2 -0.23851816192013303 8 9 0 1.5576923076923093 26
1 0 0 -1 -1 0 0 18
0 0 0.5 10 11 0 1.3500000000000001 8
1 0 0 -1 -1 0 0 3
0 2 0.54544319195226221 12 15 1 1.0666666666666667 5
0 0 1.5 13 14 0 1.3333333333333333 3
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 0 0 2
1 0 0 -1 -1 1 0 2
1 0 0 -1 -1 1 0 6
)");
}

TEST(DecisionTreeTest, SplitSearchMinSamplesLeafPinned) {
  DecisionTreeConfig config;
  config.min_samples_leaf = 3;
  DecisionTree tree(config);
  tree.Fit(MixedColumnsDataset(48, 26));
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 6 4 15
0 0 -0.5 1 8 0 10.125000000000005 48
0 5 1 2 7 2 7.6944444444444446 24
0 2 0.94428517023699143 3 6 2 0.5760683760683778 18
0 2 -0.28853756824736643 4 5 2 0.51282051282051078 13
1 0 0 -1 -1 2 0 3
1 0 0 -1 -1 2 0 10
1 0 0 -1 -1 2 0 5
1 0 0 -1 -1 3 0 6
0 5 0.5 9 14 0 8.1666666666666643 24
0 2 0.12955094022867431 10 13 0 0.5 16
0 2 -0.88227142043458628 11 12 0 1 8
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 0 0 8
1 0 0 -1 -1 1 0 8
)");
}

TEST(DecisionTreeTest, SplitSearchMinImpurityDecreasePinned) {
  DecisionTreeConfig config;
  config.min_impurity_decrease = 0.06;
  DecisionTree tree(config);
  tree.Fit(MixedColumnsDataset(48, 26));
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 6 4 9
0 0 -0.5 1 6 0 10.125000000000005 48
0 5 1 2 5 2 7.6944444444444446 24
0 2 -1.0148010044823892 3 4 2 1.5751633986928086 18
1 0 0 -1 -1 0 0 1
1 0 0 -1 -1 2 0 17
1 0 0 -1 -1 3 0 6
0 5 0.5 7 8 0 8.1666666666666643 24
1 0 0 -1 -1 0 0 16
1 0 0 -1 -1 1 0 8
)");
}

TEST(DecisionTreeTest, SplitSearchAllFeaturesPinned) {
  DecisionTreeConfig config;
  config.max_features = 0;
  DecisionTree tree(config);
  tree.Fit(MixedColumnsDataset(48, 26));
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 6 4 23
0 0 -0.5 1 12 0 10.125000000000005 48
0 5 1 2 11 2 7.6944444444444446 24
0 2 -1.0148010044823892 3 4 2 1.5751633986928086 18
1 0 0 -1 -1 0 0 1
0 2 0.94428517023699143 5 6 2 0.84705882352941253 17
1 0 0 -1 -1 2 0 12
0 1 -0.75 7 8 2 1.3000000000000003 5
1 0 0 -1 -1 0 0 1
0 2 1.1945162752966554 9 10 2 1.5 4
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 2 0 3
1 0 0 -1 -1 3 0 6
0 5 0.5 13 22 0 8.1666666666666643 24
0 2 0.12955094022867431 14 21 0 0.5 16
0 2 -0.10055351452271424 15 20 0 1.2857142857142854 8
0 0 0.5 16 19 0 0.38095238095238138 7
0 2 -0.88227142043458628 17 18 0 1.3333333333333333 3
1 0 0 -1 -1 0 0 2
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 0 0 8
1 0 0 -1 -1 1 0 8
)");
}

TEST(DecisionTreeTest, SplitSearchSampledFeaturesPinned) {
  DecisionTreeConfig config;
  config.max_features = 2;
  config.seed = 27;
  DecisionTree tree(config);
  tree.Fit(MixedColumnsDataset(48, 26));
  EXPECT_EQ(tree.Serialize(), R"(opthash.cart.v1 6 4 21
0 0 -0.5 1 18 0 10.125000000000005 48
0 0 -1.5 2 17 2 0.38333333333333197 24
0 1 -0.75 3 4 2 0.29523809523809452 15
1 0 0 -1 -1 2 0 1
0 0 -2.5 5 12 2 0.57142857142857206 14
0 2 -0.75116693556019476 6 7 2 1.4000000000000008 6
1 0 0 -1 -1 0 0 1
0 1 0.75 8 11 2 0.26666666666666589 5
0 5 1.5 9 10 2 1.3333333333333333 3
1 0 0 -1 -1 2 0 2
1 0 0 -1 -1 3 0 1
1 0 0 -1 -1 2 0 2
0 2 -0.42090281075827107 13 14 2 1.3333333333333335 8
1 0 0 -1 -1 3 0 2
0 2 1.0168794233796081 15 16 2 1.0666666666666673 6
1 0 0 -1 -1 2 0 5
1 0 0 -1 -1 3 0 1
1 0 0 -1 -1 2 0 9
0 5 0.5 19 20 0 8.1666666666666643 24
1 0 0 -1 -1 0 0 16
1 0 0 -1 -1 1 0 8
)");
}

TEST(DecisionTreeTest, FeatureColumnsHoldEachColumnsNonzerosByRow) {
  Dataset data(3);
  data.Add({0.0, 2.0, -0.0}, 0);
  data.Add({-1.5, 0.0, 0.0}, 1);
  data.Add({3.0, 4.0, 0.0}, 0);
  const FeatureColumns columns(data);
  ASSERT_EQ(columns.NumRows(), 3u);
  ASSERT_EQ(columns.NumColumns(), 3u);
  const auto rows_of = [&](size_t column) {
    return std::vector<uint32_t>(columns.Rows(column).begin(),
                                 columns.Rows(column).end());
  };
  const auto values_of = [&](size_t column) {
    return std::vector<double>(columns.Values(column).begin(),
                               columns.Values(column).end());
  };
  EXPECT_EQ(rows_of(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(values_of(0), (std::vector<double>{-1.5, 3.0}));
  EXPECT_EQ(rows_of(1), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(values_of(1), (std::vector<double>{2.0, 4.0}));
  // -0.0 is a zero.
  EXPECT_TRUE(rows_of(2).empty());
  EXPECT_TRUE(values_of(2).empty());
}

// A bootstrap sample given as per-row multiplicities over the shared
// rows fits the same tree as the sample materialized with Subset.
TEST(DecisionTreeTest, BootstrapMultiplicitiesMatchMaterializedSample) {
  const Dataset data = MixedColumnsDataset(48, 26);
  Rng rng(28);
  std::vector<size_t> bootstrap(data.NumExamples());
  for (size_t& row : bootstrap) row = rng.NextBounded(data.NumExamples());
  DecisionTreeConfig config;
  config.max_features = 2;
  config.seed = 29;
  DecisionTree materialized(config);
  materialized.Fit(data.Subset(bootstrap));
  EXPECT_EQ(materialized.Serialize(), R"(opthash.cart.v1 6 4 15
0 5 1.5 1 14 2 7.1666666666666625 48
0 0 -0.5 2 7 2 11.61904761904762 42
0 2 -1.0148010044823892 3 4 2 1.5428571428571449 21
1 0 0 -1 -1 0 0 1
0 2 1.6387600521332284 5 6 2 1.5999999999999988 20
1 0 0 -1 -1 2 0 16
1 0 0 -1 -1 0 0 4
0 0 1.5 8 13 0 1.8320346320346341 21
0 2 -0.88227142043458628 9 12 1 3.2000000000000006 10
0 5 0.5 10 11 0 1.5999999999999992 5
1 0 0 -1 -1 0 0 4
1 0 0 -1 -1 1 0 1
1 0 0 -1 -1 1 0 5
1 0 0 -1 -1 0 0 11
1 0 0 -1 -1 3 0 6
)");

  std::vector<uint32_t> multiplicity(data.NumExamples(), 0);
  for (size_t row : bootstrap) ++multiplicity[row];
  const FeatureColumns columns(data);
  DecisionTree weighted(config);
  weighted.FitSample(data, columns, multiplicity);
  EXPECT_EQ(weighted.Serialize(), materialized.Serialize());
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
