#ifndef OPTHASH_SKETCH_COUNT_SKETCH_H_
#define OPTHASH_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "common/status.h"
#include "hashing/hash_functions.h"
#include "io/bytes.h"
#include "sketch/kernels/kernels.h"

namespace opthash::sketch {

/// \brief The Count Sketch (Charikar, Chen, Farach-Colton 2002, ref [12]).
///
/// Like the Count-Min Sketch but every update is multiplied by a
/// pairwise-independent ±1 sign, and a point query returns the *median*
/// over levels. The estimator is unbiased (can under- or over-estimate),
/// trading the CMS one-sided guarantee for tighter errors on skewed data.
/// Included as the second conventional baseline discussed in §1.1/§2.
class CountSketch {
 public:
  CountSketch(size_t width, size_t depth, uint64_t seed);

  void Update(uint64_t key, int64_t count = 1);

  /// Batched unit-increment hot path; equivalent to Update(key) per key.
  /// Runs as HashBatch then AddHashed over a stack chunk.
  void UpdateBatch(Span<const uint64_t> keys);

  /// Words HashBatch stages per key: a bucket index and a sign bucket per
  /// level.
  size_t HashedWordsPerKey() const { return 2 * depth_; }

  /// Hash phase of UpdateBatch: for n = keys.size(), level `level`'s
  /// buckets of the keys fill staged[2 * level * n, (2 * level + 1) * n)
  /// and their sign buckets the next n words (a sign bucket of 0 means
  /// -1). Const and reads no counter, so it may run outside the lock that
  /// guards the counters. `staged` holds HashedWordsPerKey() * n words.
  void HashBatch(Span<const uint64_t> keys, uint64_t* staged) const;

  /// Counter phase: one signed arrival for each of the `n` keys whose
  /// buckets HashBatch staged. The two phases together are bit-identical
  /// to UpdateBatch on every tier.
  void AddHashed(const uint64_t* staged, size_t n);

  /// Folds `other` into this sketch. The Count Sketch is linear: with
  /// identical (bucket, sign) hash draws, counter-wise addition of two
  /// half-stream sketches is bit-identical to one full-stream sketch.
  /// Fails with InvalidArgument unless both sketches share width, depth and
  /// seed; self-merge is rejected.
  Status Merge(const CountSketch& other);

  /// A fresh all-zero sketch with the same geometry and hash functions.
  CountSketch EmptyClone() const { return CountSketch(width_, depth_, seed_); }

  /// Median-of-levels estimate; may be negative on adversarial collisions,
  /// in which case callers typically clamp at zero. Allocation-free: the
  /// median scratch is a stack buffer (thread-local fallback for sketches
  /// deeper than 64 levels).
  int64_t Estimate(uint64_t key) const;

  /// Estimate clamped to be non-negative (frequencies are counts).
  uint64_t EstimateNonNegative(uint64_t key) const;

  /// Batched point queries: out[i] = Estimate(keys[i]), allocation-free.
  /// keys.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> keys, Span<int64_t> out) const;

  /// Batched clamped queries: out[i] = EstimateNonNegative(keys[i]).
  void EstimateNonNegativeBatch(Span<const uint64_t> keys,
                                Span<uint64_t> out) const;

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  size_t TotalBuckets() const { return width_ * depth_; }
  size_t MemoryBytes() const { return TotalBuckets() * sizeof(uint32_t); }

  /// Binary snapshot payload (docs/FORMATS.md, section type 2):
  /// little-endian geometry + seed + signed counters. The (bucket, sign)
  /// hash pairs are redrawn from the seed on load, not stored.
  void Serialize(io::ByteWriter& out) const;

  /// Rebuilds a sketch from a Serialize payload; fails with
  /// InvalidArgument on truncated/corrupt/mis-versioned bytes.
  static Result<CountSketch> Deserialize(io::ByteReader& in);

 private:
  size_t width_;
  size_t depth_;
  uint64_t seed_;
  std::vector<hashing::LinearHash> bucket_hashes_;
  std::vector<hashing::SignHash> sign_hashes_;
  // Kernel constants mirroring the (bucket, sign) hash pairs per level
  // (sketch/kernels/); sign params describe the range-2 sign hash, whose
  // bucket 0 means -1.
  std::vector<kernels::HashKernelParams> bucket_params_;
  std::vector<kernels::HashKernelParams> sign_params_;
  std::vector<int64_t> counters_;  // depth_ x width_, row-major.
};

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_COUNT_SKETCH_H_
