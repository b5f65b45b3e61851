#include "opt/bucket_stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "opt/problem.h"

namespace opthash::opt {
namespace {

// Brute-force reference implementations over explicit member lists.
double NaiveEstimationError(const std::vector<double>& freqs) {
  if (freqs.empty()) return 0.0;
  double mean = 0.0;
  for (double f : freqs) mean += f;
  mean /= static_cast<double>(freqs.size());
  double error = 0.0;
  for (double f : freqs) error += std::abs(f - mean);
  return error;
}

double NaiveSimilarityError(const std::vector<std::vector<double>>& xs) {
  double error = 0.0;
  for (const auto& a : xs) {
    for (const auto& b : xs) error += SquaredDistance(a, b);
  }
  return error;
}

TEST(BucketStatsTest, EmptyBucket) {
  BucketStats bucket(2);
  EXPECT_TRUE(bucket.empty());
  EXPECT_EQ(bucket.count(), 0u);
  EXPECT_DOUBLE_EQ(bucket.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.EstimationError(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.SimilarityError(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.Error(0.5), 0.0);
}

TEST(BucketStatsTest, SingleElement) {
  BucketStats bucket(2);
  bucket.Add(5.0, {1.0, 2.0});
  EXPECT_EQ(bucket.count(), 1u);
  EXPECT_DOUBLE_EQ(bucket.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(bucket.EstimationError(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.SimilarityError(), 0.0);
}

TEST(BucketStatsTest, TwoElementErrors) {
  BucketStats bucket(1);
  bucket.Add(2.0, {0.0});
  bucket.Add(6.0, {3.0});
  EXPECT_DOUBLE_EQ(bucket.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(bucket.EstimationError(), 4.0);  // |2-4| + |6-4|.
  EXPECT_DOUBLE_EQ(bucket.SimilarityError(), 18.0);  // 2 * 9 (ordered pairs).
}

TEST(BucketStatsTest, AddEstimationPreview) {
  BucketStats bucket(0);
  const std::vector<double> no_features;
  bucket.Add(1.0, no_features);
  bucket.Add(3.0, no_features);
  // Adding 8: mean becomes 4, error = 3 + 1 + 4 = 8.
  EXPECT_DOUBLE_EQ(bucket.EstimationErrorWith(8.0), 8.0);
  // Preview must not mutate.
  EXPECT_EQ(bucket.count(), 2u);
  EXPECT_DOUBLE_EQ(bucket.EstimationError(), 2.0);
}

TEST(BucketStatsTest, RemoveEstimationPreview) {
  BucketStats bucket(0);
  const std::vector<double> no_features;
  bucket.Add(1.0, no_features);
  bucket.Add(3.0, no_features);
  bucket.Add(8.0, no_features);
  // Removing 8 leaves {1,3}: mean 2, error 2.
  EXPECT_DOUBLE_EQ(bucket.EstimationErrorWithout(8.0), 2.0);
  EXPECT_EQ(bucket.count(), 3u);
}

TEST(BucketStatsTest, RemoveFromSingletonGivesZero) {
  BucketStats bucket(0);
  bucket.Add(7.0, {});
  EXPECT_DOUBLE_EQ(bucket.EstimationErrorWithout(7.0), 0.0);
}

TEST(BucketStatsTest, SimilarityDeltasMatchNaive) {
  Rng rng(1);
  BucketStats bucket(3);
  std::vector<std::vector<double>> members;
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x = {rng.NextGaussian(), rng.NextGaussian(),
                             rng.NextGaussian()};
    // Preview before adding.
    double naive_delta = 0.0;
    for (const auto& m : members) naive_delta += 2.0 * SquaredDistance(x, m);
    EXPECT_NEAR(bucket.SimilarityDeltaAdd(x), naive_delta, 1e-9);
    bucket.Add(static_cast<double>(i), x);
    members.push_back(x);
    EXPECT_NEAR(bucket.SimilarityError(), NaiveSimilarityError(members), 1e-8);
  }
  // Remove previews.
  for (int i = 0; i < 5; ++i) {
    const auto& x = members.back();
    double naive_delta = 0.0;
    for (size_t k = 0; k + 1 < members.size(); ++k) {
      naive_delta -= 2.0 * SquaredDistance(x, members[k]);
    }
    EXPECT_NEAR(bucket.SimilarityDeltaRemove(x), naive_delta, 1e-8);
    bucket.Remove(static_cast<double>(members.size() - 1), x);
    members.pop_back();
    EXPECT_NEAR(bucket.SimilarityError(), NaiveSimilarityError(members), 1e-8);
  }
}

TEST(BucketStatsTest, RandomizedAddRemoveMatchesNaive) {
  // Property test: after any interleaving of adds/removes, the incremental
  // stats agree with the from-scratch references.
  Rng rng(2);
  BucketStats bucket(2);
  std::vector<double> freqs;
  std::vector<std::vector<double>> features;
  for (int step = 0; step < 300; ++step) {
    const bool add = freqs.empty() || rng.NextBernoulli(0.6);
    if (add) {
      const double f = static_cast<double>(rng.NextBounded(40));
      std::vector<double> x = {rng.NextGaussian(), rng.NextGaussian()};
      bucket.Add(f, x);
      freqs.push_back(f);
      features.push_back(x);
    } else {
      const size_t victim = rng.NextBounded(freqs.size());
      bucket.Remove(freqs[victim], features[victim]);
      freqs.erase(freqs.begin() + static_cast<long>(victim));
      features.erase(features.begin() + static_cast<long>(victim));
    }
    ASSERT_EQ(bucket.count(), freqs.size());
    EXPECT_NEAR(bucket.EstimationError(), NaiveEstimationError(freqs), 1e-7);
    EXPECT_NEAR(bucket.SimilarityError(), NaiveSimilarityError(features),
                1e-6);
    double mean = 0.0;
    for (double f : freqs) mean += f;
    if (!freqs.empty()) mean /= static_cast<double>(freqs.size());
    EXPECT_NEAR(bucket.Mean(), mean, 1e-9);
  }
}

TEST(BucketStatsTest, EstimationPreviewsMatchNaiveRandomized) {
  Rng rng(3);
  BucketStats bucket(0);
  std::vector<double> freqs;
  for (int i = 0; i < 50; ++i) {
    const double f = static_cast<double>(rng.NextBounded(100));
    bucket.Add(f, {});
    freqs.push_back(f);
  }
  for (int trial = 0; trial < 100; ++trial) {
    const double extra = static_cast<double>(rng.NextBounded(120));
    std::vector<double> with = freqs;
    with.push_back(extra);
    EXPECT_NEAR(bucket.EstimationErrorWith(extra), NaiveEstimationError(with),
                1e-7);
    const size_t victim = rng.NextBounded(freqs.size());
    std::vector<double> without = freqs;
    without.erase(without.begin() + static_cast<long>(victim));
    EXPECT_NEAR(bucket.EstimationErrorWithout(freqs[victim]),
                NaiveEstimationError(without), 1e-7);
  }
}

TEST(BucketStatsTest, SumAbsDeviationsArbitraryPivot) {
  BucketStats bucket(0);
  for (double f : {1.0, 4.0, 4.0, 10.0}) bucket.Add(f, {});
  EXPECT_DOUBLE_EQ(bucket.SumAbsDeviations(4.0), 3.0 + 0.0 + 0.0 + 6.0);
  EXPECT_DOUBLE_EQ(bucket.SumAbsDeviations(0.0), 19.0);
  EXPECT_DOUBLE_EQ(bucket.SumAbsDeviations(100.0), 400.0 - 19.0);
}

TEST(BucketStatsTest, DuplicateFrequenciesRemoveCorrectly) {
  BucketStats bucket(1);
  bucket.Add(5.0, {1.0});
  bucket.Add(5.0, {2.0});
  bucket.Add(5.0, {3.0});
  bucket.Remove(5.0, {2.0});
  EXPECT_EQ(bucket.count(), 2u);
  EXPECT_DOUBLE_EQ(bucket.Mean(), 5.0);
  // Remaining ordered-pair similarity: 2 * ||1-3||^2 = 8.
  EXPECT_NEAR(bucket.SimilarityError(), 8.0, 1e-9);
}

TEST(BucketStatsTest, ErrorCombinesLambda) {
  BucketStats bucket(1);
  bucket.Add(0.0, {0.0});
  bucket.Add(4.0, {2.0});
  // e = 4, s = 8.
  EXPECT_DOUBLE_EQ(bucket.Error(1.0), 4.0);
  EXPECT_DOUBLE_EQ(bucket.Error(0.0), 8.0);
  EXPECT_DOUBLE_EQ(bucket.Error(0.25), 0.25 * 4.0 + 0.75 * 8.0);
}

TEST(BucketStatsTest, FeaturelessBucketIgnoresSimilarity) {
  BucketStats bucket(0);
  bucket.Add(1.0, {});
  bucket.Add(9.0, {});
  EXPECT_DOUBLE_EQ(bucket.SimilarityError(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.SimilarityDeltaAdd({}), 0.0);
  EXPECT_DOUBLE_EQ(bucket.Error(0.5), 0.5 * 8.0);
}

TEST(BucketStatsTest, EmptiedBucketScoresLikeAFreshOne) {
  // 0.1 + 0.2 - 0.1 - 0.2 rounds to 2.78e-17, not 0. An emptied bucket
  // that kept that residue would score a tiny positive error for its next
  // element and lose ties a fresh bucket wins.
  BucketStats bucket(0);
  bucket.Add(0.1, {});
  bucket.Add(0.2, {});
  bucket.Remove(0.1, {});
  bucket.Remove(0.2, {});
  const BucketStats fresh(0);
  EXPECT_TRUE(bucket.empty());
  EXPECT_EQ(bucket.FrequencySum(), 0.0);
  EXPECT_EQ(bucket.Mean(), 0.0);
  EXPECT_EQ(bucket.EstimationErrorWith(0.1), fresh.EstimationErrorWith(0.1));
  EXPECT_EQ(bucket.EstimationErrorWith(0.1), 0.0);

  // The same with 2-d feature rows: the feature sums the similarity score
  // reads must not keep a residue either.
  // 0.7 + 0.2 - 0.7 - 0.2 leaves -5.55e-17 the same way.
  BucketStats featured(2);
  featured.Add(1.0, {0.7, 0.9});
  featured.Add(2.0, {0.2, -0.3});
  featured.Remove(1.0, {0.7, 0.9});
  featured.Remove(2.0, {0.2, -0.3});
  const BucketStats fresh_featured(2);
  EXPECT_TRUE(featured.empty());
  EXPECT_EQ(featured.SimilarityError(), 0.0);
  EXPECT_EQ(featured.SimilarityDeltaAdd({0.3, -0.2}), 0.0);
  EXPECT_EQ(featured.SimilarityDeltaAdd({0.3, -0.2}),
            fresh_featured.SimilarityDeltaAdd({0.3, -0.2}));
}

TEST(BucketStatsTest, EstimationDeltaLowerBound) {
  // Hosting f in a non-empty bucket raises its estimation error by at least
  // 2 |f - mu| / (c + 1): a member lies on each side of the mean, and the
  // mean moves by (f - mu) / (c + 1). BCD prunes candidates with this
  // bound, less a rounding slack of 1e-9 (S + e + f + 1).
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    BucketStats bucket(0);
    const size_t count = 1 + rng.NextBounded(20);
    const bool integers = trial % 2 == 0;
    for (size_t i = 0; i < count; ++i) {
      const double member = integers ? static_cast<double>(rng.NextBounded(30))
                                     : rng.NextDouble(0.0, 30.0);
      bucket.Add(member, {});
    }
    const double f = integers ? static_cast<double>(rng.NextBounded(40))
                              : rng.NextDouble(0.0, 40.0);
    const double e = bucket.EstimationError();
    const double delta = bucket.EstimationErrorWith(f) - e;
    const double bound = 2.0 * std::abs(f - bucket.Mean()) /
                         static_cast<double>(bucket.count() + 1);
    const double slack = 1e-9 * (bucket.FrequencySum() + e + f + 1.0);
    EXPECT_GE(delta, bound - slack) << "trial " << trial;
  }
  // The bound is tight: {0, 0, 10} hosting 0 moves the mean from 10/3 to
  // 5/2 and raises the error from 40/3 to 15, exactly 2 (10/3) / 4.
  BucketStats tight(0);
  for (double f : {0.0, 0.0, 10.0}) tight.Add(f, {});
  EXPECT_NEAR(tight.EstimationErrorWith(0.0) - tight.EstimationError(),
              2.0 * (10.0 / 3.0) / 4.0, 1e-12);
}

}  // namespace
}  // namespace opthash::opt
