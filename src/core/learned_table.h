#ifndef OPTHASH_CORE_LEARNED_TABLE_H_
#define OPTHASH_CORE_LEARNED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/span.h"

namespace opthash::core {

/// \brief The opt-hash learned table (§3, §5): the stored prefix ids,
/// strictly ascending, and a parallel column of their buckets.
///
/// A non-owning view over the two columns of docs/FORMATS.md §3.7.
/// OptHashEstimator points it at its own vectors and io::MappedEstimatorView
/// at a mapped snapshot, so owned and mapped storage share one probe.
class LearnedTable {
 public:
  /// Binary searches FindBatch runs side by side.
  static constexpr size_t kLanes = 16;

  LearnedTable() = default;
  LearnedTable(const uint64_t* ids, const int32_t* buckets, size_t size)
      : ids_(ids), buckets_(buckets), size_(size) {}

  /// Bucket stored for `id`, or -1 when the id is not in the table.
  int32_t Find(uint64_t id) const;

  /// out[i] = Find(ids[i]). Each block of kLanes ids runs branch-free
  /// binary searches in lockstep, so their cache misses overlap.
  /// ids.size() must equal out.size().
  void FindBatch(Span<const uint64_t> ids, Span<int32_t> out) const;

  size_t size() const { return size_; }
  size_t count(uint64_t id) const { return Find(id) >= 0 ? 1 : 0; }
  Span<const uint64_t> ids() const { return {ids_, size_}; }

  /// Walks the (id, bucket) entries in ascending id order.
  class Iterator {
   public:
    Iterator(const uint64_t* id, const int32_t* bucket)
        : id_(id), bucket_(bucket) {}
    std::pair<uint64_t, int32_t> operator*() const { return {*id_, *bucket_}; }
    Iterator& operator++() {
      ++id_;
      ++bucket_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return id_ != other.id_; }

   private:
    const uint64_t* id_;
    const int32_t* bucket_;
  };
  Iterator begin() const { return {ids_, buckets_}; }
  Iterator end() const { return {ids_ + size_, buckets_ + size_}; }

 private:
  const uint64_t* ids_ = nullptr;
  const int32_t* buckets_ = nullptr;
  size_t size_ = 0;
};

/// \brief Non-owning view of the learned buckets' aggregates: phi_j
/// (summed frequency) and c_j (element count) for `size` buckets.
struct BucketCounters {
  const double* freq = nullptr;
  const double* count = nullptr;
  size_t size = 0;

  /// The bucket-average estimate phi_j / c_j; 0.0 for an empty bucket and
  /// for a bucket outside [0, size): a table miss (-1) or a corrupt mapped
  /// entry, which fails closed.
  double Average(int32_t bucket) const {
    const auto j = static_cast<uint32_t>(bucket);
    if (j >= size || count[j] <= 0.0) return 0.0;
    return freq[j] / count[j];
  }

  /// out[i] = Average(buckets[i]), prefetching the counters a fixed
  /// distance ahead. buckets.size() must equal out.size().
  void GatherAverages(Span<const int32_t> buckets, Span<double> out) const;
};

/// Key-only queries of every bundle verb and open mode (the offline
/// query engine answers a blank-text row the same way): out[i] is the
/// average of ids[i]'s stored bucket, or of `miss_bucket` when the table
/// does not hold ids[i]. A miss bucket of -1 answers misses 0. Probed and
/// gathered one stack block at a time; ids.size() must equal out.size().
void EstimateStoredIds(const LearnedTable& table,
                       const BucketCounters& counters, int32_t miss_bucket,
                       Span<const uint64_t> ids, Span<double> out);

}  // namespace opthash::core

#endif  // OPTHASH_CORE_LEARNED_TABLE_H_
