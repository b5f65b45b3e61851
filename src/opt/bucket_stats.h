#ifndef OPTHASH_OPT_BUCKET_STATS_H_
#define OPTHASH_OPT_BUCKET_STATS_H_

#include <cstddef>
#include <vector>

namespace opthash::opt {

/// \brief Σ_k |f_k - pivot| over `count` members of frequency sum `sum`,
/// given that exactly the `below` smallest of them (of sum `below_sum`) lie
/// under the pivot.
///
/// This is BucketStats::SumAbsDeviations' arithmetic after its search; a
/// caller that already knows the split (the pivot lies outside the members'
/// range) gets the same bits without the search.
inline double SplitAbsDeviations(double pivot, size_t below, double below_sum,
                                 size_t count, double sum) {
  const size_t above = count - below;
  const double above_sum = sum - below_sum;
  return (pivot * static_cast<double>(below) - below_sum) +
         (above_sum - pivot * static_cast<double>(above));
}

/// \brief Incrementally maintained statistics for one bucket I_j.
///
/// This is the data structure behind Algorithm 1's "we maintain, for each
/// bucket, the set of elements I_j mapped therein, its cardinality c_j and
/// mean frequency mu_j, as well as the associated estimation error e_j and
/// similarity error s_j" — augmented so every quantity the BCD inner loop
/// needs is answered without rescanning bucket members:
///
///  * frequencies live in a sorted vector with prefix sums, so the
///    sum-of-absolute-deviations around *any* pivot (the current mean, the
///    mean after a hypothetical insertion/removal) is O(log c_j);
///  * features are folded into Σx (vector) and Σ||x||² (scalar), so the
///    similarity delta of adding/removing an element x is O(p) via
///        Σ_k ||x - x_k||² = c·||x||² - 2·<x, Σx> + Σ||x_k||².
///
/// The similarity error s_j counts *ordered* pairs, matching the paper's
/// Σ_{(i,k) ∈ I_j × I_j} ||x_i - x_k||² (each unordered pair twice,
/// self-pairs contribute zero).
class BucketStats {
 public:
  /// \param feature_dim dimension p of element features (0 if lambda == 1
  ///        and features are ignored).
  explicit BucketStats(size_t feature_dim = 0);

  /// Inserts an element with frequency `f` and features `x` (x may be empty
  /// iff the bucket was created with feature_dim == 0).
  void Add(double f, const std::vector<double>& x);

  /// Removes one element with this exact frequency (must be present).
  void Remove(double f, const std::vector<double>& x);

  size_t count() const { return sorted_freqs_.size(); }
  bool empty() const { return sorted_freqs_.empty(); }

  /// Mean frequency mu_j; 0 for an empty bucket.
  double Mean() const;

  /// Sum of member frequencies, maintained incrementally (exactly 0 once
  /// the bucket empties).
  double FrequencySum() const { return freq_sum_; }

  /// Sum of member frequencies added in ascending order: the below-sum
  /// SumAbsDeviations uses when every member lies under the pivot.
  double SortedSum() const { return prefix_sums_.back(); }

  /// Estimation error e_j = Σ_{i∈I_j} |f_i - mu_j|.
  double EstimationError() const;

  /// e_j if an element with frequency `f` were added.
  double EstimationErrorWith(double f) const;

  /// e_j if one member with frequency `f` were removed (must be a member).
  double EstimationErrorWithout(double f) const;

  /// Similarity error s_j = Σ_{(i,k)∈I_j×I_j} ||x_i - x_k||² (ordered pairs).
  double SimilarityError() const { return similarity_error_; }

  /// Change in s_j if `x` were added: +2·Σ_k ||x - x_k||².
  double SimilarityDeltaAdd(const std::vector<double>& x) const;

  /// Change in s_j if member `x` were removed: -2·Σ_{k≠x} ||x - x_k||².
  double SimilarityDeltaRemove(const std::vector<double>& x) const;

  /// Combined bucket error  lambda·e_j + (1-lambda)·s_j.
  double Error(double lambda) const;

  /// Sum of absolute deviations of all members around an arbitrary pivot.
  double SumAbsDeviations(double pivot) const;

  /// Member frequencies in ascending order (used by the branch-and-bound
  /// lower bounds).
  const std::vector<double>& sorted_frequencies() const {
    return sorted_freqs_;
  }

 private:
  // Σ_k ||x - x_k||² over current members.
  double SumSquaredDistancesTo(const std::vector<double>& x) const;

  size_t feature_dim_;
  std::vector<double> sorted_freqs_;
  std::vector<double> prefix_sums_;  // prefix_sums_[i] = sum of first i freqs.
  double freq_sum_ = 0.0;
  std::vector<double> feature_sum_;  // Σx over members.
  double feature_sq_sum_ = 0.0;      // Σ||x||² over members.
  double similarity_error_ = 0.0;    // s_j, maintained incrementally.
};

}  // namespace opthash::opt

#endif  // OPTHASH_OPT_BUCKET_STATS_H_
