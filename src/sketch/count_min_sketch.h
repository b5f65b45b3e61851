#ifndef OPTHASH_SKETCH_COUNT_MIN_SKETCH_H_
#define OPTHASH_SKETCH_COUNT_MIN_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "common/status.h"
#include "hashing/hash_functions.h"
#include "io/bytes.h"
#include "sketch/kernels/kernels.h"

namespace opthash::sketch {

/// \brief Count-min's d levels: the level hashes drawn from (width, depth,
/// seed) and the query walk over a row-major depth x width counter matrix.
/// CountMinSketch walks its own counters and io::MappedCountMinView the
/// mapped ones, so both answer through this one code path.
class CountMinLevels {
 public:
  CountMinLevels() = default;
  CountMinLevels(size_t width, size_t depth, uint64_t seed);

  /// Position of `key`'s counter at `level` in the counter matrix.
  size_t Index(size_t level, uint64_t key) const {
    return level * width_ + hashes_[level](key);
  }
  const kernels::HashKernelParams& kernel_params(size_t level) const {
    return kernel_params_[level];
  }

  /// Point query over the matrix at `counters`: min over levels.
  uint64_t Estimate(const uint64_t* counters, uint64_t key) const;

  /// out[i] = Estimate(counters, keys[i]), allocation-free. Walks the
  /// matrix level-major per block, hashing and gather-min through the
  /// dispatched kernel tier (bit-identical on every tier); `counters` must
  /// be 8-aligned. keys.size() must equal out.size().
  void EstimateBatch(const uint64_t* counters, Span<const uint64_t> keys,
                     Span<uint64_t> out) const;

  size_t width() const { return width_; }
  size_t depth() const { return hashes_.size(); }

 private:
  size_t width_ = 0;
  std::vector<hashing::LinearHash> hashes_;
  // Kernel constants mirroring hashes_ for the SIMD batch paths.
  std::vector<kernels::HashKernelParams> kernel_params_;
};

/// \brief The Count-Min Sketch (Cormode & Muthukrishnan 2005, ref [11]).
///
/// Maintains d arrays ("levels") of w counters each. Every update increments
/// one counter per level through an independent 2-universal hash; a point
/// query returns the minimum over levels, which always overestimates the
/// true count. With w = ceil(e/eps) and d = ceil(ln(1/delta)),
/// |estimate - f_u| <= eps * ||f||_1 with probability at least 1 - delta.
///
/// This is the paper's `count-min` baseline (§2.1 / §7.2).
class CountMinSketch {
 public:
  /// \param width   counters per level (w >= 1)
  /// \param depth   number of levels (d >= 1)
  /// \param seed    seed for the level hash functions
  /// \param conservative_update if true, an update only raises the counters
  ///        that equal the current minimum (Estan-Varghese conservative
  ///        update), which never increases estimates and is an upper bound
  ///        preserving optimization.
  CountMinSketch(size_t width, size_t depth, uint64_t seed,
                 bool conservative_update = false);

  /// Sizes the sketch from accuracy targets: w = ceil(e/eps),
  /// d = ceil(ln(1/delta)).
  static Result<CountMinSketch> FromErrorBounds(double epsilon, double delta,
                                                uint64_t seed);

  /// Adds `count` occurrences of `key`.
  void Update(uint64_t key, uint64_t count = 1);

  /// Batched unit-increment hot path: one arrival per key in `keys`.
  /// Equivalent to calling Update(key) for each key in order; exists so
  /// the sharded ingestion engine (stream/sharded_ingest.h) amortizes the
  /// per-call overhead over whole trace blocks. A plain sketch runs it as
  /// HashBatch then AddHashed over a stack chunk.
  void UpdateBatch(Span<const uint64_t> keys);

  /// Words HashBatch stages per key: one bucket index per level. 0 for a
  /// conservative sketch, whose update reads the counters it raises and
  /// so has no counter-free phase to split off.
  size_t HashedWordsPerKey() const {
    return conservative_update_ ? 0 : depth_;
  }

  /// Hash phase of UpdateBatch: staged[level * keys.size() + i] is
  /// keys[i]'s bucket in row `level`, hashed through the dispatched
  /// kernel tier. Const and reads no counter, so it may run outside the
  /// lock that guards the counters. `staged` holds
  /// HashedWordsPerKey() * keys.size() words.
  void HashBatch(Span<const uint64_t> keys, uint64_t* staged) const;

  /// Counter phase: one arrival for each of the `n` keys whose indices
  /// HashBatch staged. The two phases together are bit-identical to
  /// UpdateBatch on every tier.
  void AddHashed(const uint64_t* staged, size_t n);

  /// Folds `other` into this sketch. The CMS is a linear sketch: with
  /// identical hash functions the counters of two half-stream sketches add
  /// to exactly the full-stream counters, so for plain updates
  /// Merge(A, B) is bit-identical to ingesting A's and B's streams
  /// sequentially.
  ///
  /// Conservative-update semantics (order-sensitivity): Merge itself is
  /// plain counter addition, which commutes — merging frozen shards in
  /// any order yields identical counters. What is order-sensitive is the
  /// conservative *ingestion* around the merges: a conservative update
  /// raises only the counters at the current minimum, so the counter
  /// state depends on how the stream was partitioned across shards and
  /// on whether updates happen before or after a merge. Consequently a
  /// merged conservative sketch is generally NOT identical to
  /// single-stream conservative ingestion, and two shard/merge/ingest
  /// interleavings of the same arrivals may disagree. What every
  /// interleaving preserves is the CMS contract: each shard's per-level
  /// minimum dominates its substream count, and
  /// min_i(a_i + b_i) >= min_i a_i + min_i b_i, so estimates remain upper
  /// bounds on the true counts under any merge order (regression-tested
  /// in tests/sketch_merge_test.cc).
  ///
  /// Fails with InvalidArgument unless both sketches share width, depth,
  /// seed and the conservative flag (same geometry + same hash draws);
  /// merging a sketch into itself is rejected.
  Status Merge(const CountMinSketch& other);

  /// A fresh all-zero sketch with the same geometry and hash functions —
  /// the worker-replica factory of the sharded ingestion engine.
  CountMinSketch EmptyClone() const {
    return CountMinSketch(width_, depth_, seed_, conservative_update_);
  }

  /// Point query: min over levels, never below the true count.
  uint64_t Estimate(uint64_t key) const {
    return levels_.Estimate(counters_.data(), key);
  }

  /// Batched point queries: out[i] = Estimate(keys[i]), allocation-free
  /// (CountMinLevels::EstimateBatch). keys.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> keys, Span<uint64_t> out) const {
    levels_.EstimateBatch(counters_.data(), keys, out);
  }

  /// Total updates seen (= ||f||_1 for unit increments).
  uint64_t total_count() const { return total_count_; }

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  bool conservative_update() const { return conservative_update_; }

  /// Number of buckets (w*d); each bucket costs 4 bytes in the paper's
  /// memory accounting.
  size_t TotalBuckets() const { return width_ * depth_; }
  size_t MemoryBytes() const { return TotalBuckets() * sizeof(uint32_t); }

  /// Guarantee parameters implied by the current geometry.
  double Epsilon() const;
  double Delta() const;

  /// Appends the binary snapshot payload (docs/FORMATS.md, section type 1)
  /// to `out`: geometry + seed + counters, all little-endian. Hash
  /// functions are not stored — they are redrawn deterministically from
  /// the seed on load, so the payload is portable across hosts of either
  /// endianness. Counter bytes are written so the array sits 8-aligned
  /// when the payload itself starts 8-aligned (every snapshot section
  /// does), which is what the zero-copy mapped reader relies on.
  void Serialize(io::ByteWriter& out) const;

  /// Rebuilds a sketch from a Serialize payload. `in` must be positioned
  /// at the payload start; on success exactly the payload bytes are
  /// consumed. Fails with InvalidArgument on truncation, a bad payload
  /// version, or impossible geometry — never crashes on corrupt input.
  static Result<CountMinSketch> Deserialize(io::ByteReader& in);

 private:
  size_t width_;
  size_t depth_;
  uint64_t seed_;
  bool conservative_update_;
  CountMinLevels levels_;
  std::vector<uint64_t> counters_;  // depth_ x width_, row-major.
  uint64_t total_count_ = 0;
};

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_COUNT_MIN_SKETCH_H_
