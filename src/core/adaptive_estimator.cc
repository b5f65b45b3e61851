#include "core/adaptive_estimator.h"

#include "common/check.h"

namespace opthash::core {

AdaptiveOptHashEstimator::AdaptiveOptHashEstimator(
    OptHashEstimator base, const AdaptiveConfig& config,
    const std::vector<uint64_t>& prefix_ids)
    : base_(std::move(base)),
      bloom_(hashing::BloomFilter::ForExpectedInsertions(
          std::max<size_t>(config.expected_distinct, 1), config.bloom_fpr,
          config.seed)) {
  const BucketCounters base_counters = base_.bucket_counters();
  bucket_freq_.assign(base_counters.freq,
                      base_counters.freq + base_counters.size);
  bucket_count_.assign(base_counters.count,
                       base_counters.count + base_counters.size);
  // Step 3 (§5.3): all prefix elements start out marked as seen.
  for (uint64_t id : prefix_ids) bloom_.Add(id);
}

void AdaptiveOptHashEstimator::Update(const stream::StreamItem& item) {
  const int32_t bucket = base_.BucketOf(item);
  if (bucket < 0) return;  // No classifier and unseen ID: untrackable.
  const auto j = static_cast<size_t>(bucket);
  bucket_freq_[j] += 1.0;
  if (!bloom_.MayContain(item.id)) {
    bucket_count_[j] += 1.0;
    bloom_.Add(item.id);
  }
}

double AdaptiveOptHashEstimator::Estimate(
    const stream::StreamItem& item) const {
  // f~ = (phi_j / c_j) * BF(u).
  if (!bloom_.MayContain(item.id)) return 0.0;
  return Counters().Average(base_.BucketOf(item));
}

void AdaptiveOptHashEstimator::EstimateBatch(
    Span<const stream::StreamItem> items, Span<double> out) const {
  OPTHASH_CHECK_EQ(items.size(), out.size());
  thread_local OptHashQueryWorkspace workspace;
  thread_local std::vector<stream::StreamItem> filtered;
  thread_local std::vector<uint8_t> may_contain;
  // Bloom prefilter, mirroring the scalar short-circuit: a Bloom-negative
  // item answers 0 no matter where it would route, so strip its features
  // before routing and the classifier never runs for it (the residual
  // table probe is cheap and keeps the routing code shared).
  filtered.resize(items.size());
  may_contain.resize(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    may_contain[i] = bloom_.MayContain(items[i].id) ? 1 : 0;
    filtered[i] = may_contain[i] != 0
                      ? items[i]
                      : stream::StreamItem{items[i].id, nullptr};
  }
  base_.RouteBatch(
      Span<const stream::StreamItem>(filtered.data(), filtered.size()),
      workspace);
  for (size_t i = 0; i < items.size(); ++i) {
    if (may_contain[i] == 0) workspace.buckets[i] = -1;
  }
  Counters().GatherAverages(workspace.buckets, out);
}

size_t AdaptiveOptHashEstimator::MemoryBuckets() const {
  // Base scheme plus the Bloom filter's bit array (4 bytes per bucket).
  return base_.MemoryBuckets() + (bloom_.MemoryBytes() + 3) / 4;
}

}  // namespace opthash::core
