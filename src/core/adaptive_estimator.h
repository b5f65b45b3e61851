#ifndef OPTHASH_CORE_ADAPTIVE_ESTIMATOR_H_
#define OPTHASH_CORE_ADAPTIVE_ESTIMATOR_H_

#include <vector>

#include "core/opt_hash_estimator.h"
#include "hashing/bloom_filter.h"

namespace opthash::core {

/// \brief Options for the adaptive counting extension (§5.3).
struct AdaptiveConfig {
  /// Target false-positive rate of the Bloom filter at its expected load.
  double bloom_fpr = 0.01;
  /// Expected number of distinct elements the filter will hold over the
  /// stream's lifetime (sizing input).
  size_t expected_distinct = 100000;
  uint64_t seed = 5;
};

/// \brief The adaptive counting extension of opt-hash (§5.3 / Fig. 9d).
///
/// Unlike the static estimator — which tracks only elements stored in the
/// learned hash table — the adaptive estimator routes *every* arrival to a
/// bucket (hash table for stored IDs, classifier otherwise), always
/// increments the bucket's aggregate frequency phi_j, and uses a Bloom
/// filter over element IDs to decide whether the arrival is a new distinct
/// element, in which case the bucket's element count c_j also grows.
/// Count queries return (phi_j / c_j) * BF(u): elements never seen get 0.
///
/// Bloom false positives mark unseen elements as seen, so c_j undercounts
/// and the estimator systematically *over*estimates — the bias direction
/// the paper derives (and that the test suite verifies).
class AdaptiveOptHashEstimator : public FrequencyEstimator {
 public:
  /// \param base        a trained static estimator whose scheme is adopted
  /// \param config      Bloom filter sizing
  /// \param prefix_ids  all distinct element IDs observed in the prefix
  ///                    (U0) — they seed the Bloom filter.
  AdaptiveOptHashEstimator(OptHashEstimator base, const AdaptiveConfig& config,
                           const std::vector<uint64_t>& prefix_ids);

  void Update(const stream::StreamItem& item) override;
  double Estimate(const stream::StreamItem& item) const override;

  /// Batched point queries: shares the base estimator's two-pass routing
  /// (table probes + one batched classifier call), then gathers from the
  /// adaptive counters gated by the Bloom filter. Element-wise identical
  /// to a loop of Estimate; allocation-free in steady state.
  void EstimateBatch(Span<const stream::StreamItem> items,
                     Span<double> out) const override;

  size_t MemoryBuckets() const override;
  const char* Name() const override { return "opt-hash-adaptive"; }

  const hashing::BloomFilter& bloom() const { return bloom_; }
  const OptHashEstimator& base() const { return base_; }

 private:
  BucketCounters Counters() const {
    return {bucket_freq_.data(), bucket_count_.data(), bucket_freq_.size()};
  }

  OptHashEstimator base_;
  hashing::BloomFilter bloom_;
  std::vector<double> bucket_freq_;   // phi_j (adaptive copies).
  std::vector<double> bucket_count_;  // c_j.
};

}  // namespace opthash::core

#endif  // OPTHASH_CORE_ADAPTIVE_ESTIMATOR_H_
