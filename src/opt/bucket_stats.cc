#include "opt/bucket_stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace opthash::opt {

BucketStats::BucketStats(size_t feature_dim)
    : feature_dim_(feature_dim), feature_sum_(feature_dim, 0.0) {
  prefix_sums_.push_back(0.0);
}

void BucketStats::Add(double f, const std::vector<double>& x) {
  if (feature_dim_ > 0) {
    OPTHASH_CHECK_EQ(x.size(), feature_dim_);
    similarity_error_ += SimilarityDeltaAdd(x);
    double sq = 0.0;
    for (size_t d = 0; d < feature_dim_; ++d) {
      feature_sum_[d] += x[d];
      sq += x[d] * x[d];
    }
    feature_sq_sum_ += sq;
  }
  const auto pos =
      std::upper_bound(sorted_freqs_.begin(), sorted_freqs_.end(), f);
  sorted_freqs_.insert(pos, f);
  freq_sum_ += f;
  prefix_sums_.resize(sorted_freqs_.size() + 1);
  for (size_t i = 0; i < sorted_freqs_.size(); ++i) {
    prefix_sums_[i + 1] = prefix_sums_[i] + sorted_freqs_[i];
  }
}

void BucketStats::Remove(double f, const std::vector<double>& x) {
  const auto pos =
      std::lower_bound(sorted_freqs_.begin(), sorted_freqs_.end(), f);
  OPTHASH_CHECK_MSG(pos != sorted_freqs_.end() && *pos == f,
                    "Remove of a frequency that is not a bucket member");
  sorted_freqs_.erase(pos);
  freq_sum_ -= f;
  prefix_sums_.resize(sorted_freqs_.size() + 1);
  for (size_t i = 0; i < sorted_freqs_.size(); ++i) {
    prefix_sums_[i + 1] = prefix_sums_[i] + sorted_freqs_[i];
  }
  if (feature_dim_ > 0) {
    OPTHASH_CHECK_EQ(x.size(), feature_dim_);
    double sq = 0.0;
    for (size_t d = 0; d < feature_dim_; ++d) {
      feature_sum_[d] -= x[d];
      sq += x[d] * x[d];
    }
    feature_sq_sum_ -= sq;
    // Delta computed against the post-removal aggregates: -2 Σ_{k≠x}||x-x_k||².
    similarity_error_ -= 2.0 * SumSquaredDistancesTo(x);
  }
  // An emptied bucket must score like a fresh one, so kill the drift.
  if (sorted_freqs_.empty()) {
    freq_sum_ = 0.0;
    std::fill(feature_sum_.begin(), feature_sum_.end(), 0.0);
    feature_sq_sum_ = 0.0;
    similarity_error_ = 0.0;
  }
}

double BucketStats::Mean() const {
  if (sorted_freqs_.empty()) return 0.0;
  return freq_sum_ / static_cast<double>(sorted_freqs_.size());
}

double BucketStats::SumAbsDeviations(double pivot) const {
  if (sorted_freqs_.empty()) return 0.0;
  // Members below the pivot contribute pivot - f; the rest f - pivot.
  const auto split =
      std::lower_bound(sorted_freqs_.begin(), sorted_freqs_.end(), pivot);
  const auto below = static_cast<size_t>(split - sorted_freqs_.begin());
  return SplitAbsDeviations(pivot, below, prefix_sums_[below],
                            sorted_freqs_.size(), freq_sum_);
}

double BucketStats::EstimationError() const {
  return SumAbsDeviations(Mean());
}

double BucketStats::EstimationErrorWith(double f) const {
  const double new_mean =
      (freq_sum_ + f) / static_cast<double>(sorted_freqs_.size() + 1);
  return SumAbsDeviations(new_mean) + std::abs(f - new_mean);
}

double BucketStats::EstimationErrorWithout(double f) const {
  OPTHASH_CHECK(!sorted_freqs_.empty());
  if (sorted_freqs_.size() == 1) return 0.0;
  const double new_mean =
      (freq_sum_ - f) / static_cast<double>(sorted_freqs_.size() - 1);
  // Deviations of all members around the new mean, minus the removed one.
  return SumAbsDeviations(new_mean) - std::abs(f - new_mean);
}

double BucketStats::SumSquaredDistancesTo(const std::vector<double>& x) const {
  // Σ_k ||x - x_k||² = c·||x||² - 2<x, Σx> + Σ||x_k||².
  double x_sq = 0.0;
  double dot = 0.0;
  for (size_t d = 0; d < feature_dim_; ++d) {
    x_sq += x[d] * x[d];
    dot += x[d] * feature_sum_[d];
  }
  const double total = static_cast<double>(sorted_freqs_.size()) * x_sq -
                       2.0 * dot + feature_sq_sum_;
  // Guard against tiny negative values from floating point cancellation.
  return total < 0.0 ? 0.0 : total;
}

double BucketStats::SimilarityDeltaAdd(const std::vector<double>& x) const {
  if (feature_dim_ == 0) return 0.0;
  return 2.0 * SumSquaredDistancesTo(x);
}

double BucketStats::SimilarityDeltaRemove(const std::vector<double>& x) const {
  if (feature_dim_ == 0) return 0.0;
  // Σ_{k≠x} ||x - x_k||² = Σ_k ||x - x_k||² (self term is zero), computed
  // against the *current* aggregates that still include x.
  return -2.0 * SumSquaredDistancesTo(x);
}

double BucketStats::Error(double lambda) const {
  return lambda * EstimationError() + (1.0 - lambda) * similarity_error_;
}

}  // namespace opthash::opt
