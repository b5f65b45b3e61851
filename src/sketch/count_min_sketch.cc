#include "sketch/count_min_sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "sketch/kernels/simd_dispatch.h"

namespace opthash::sketch {

namespace {
// Batch paths hash one key block per level into this much stack scratch,
// keeping the hot loops allocation-free (tests/query_alloc_test.cc).
constexpr size_t kKernelChunk = 256;
// UpdateBatch stages every level's indices of one key block at once:
// 256 keys at depth 4.
constexpr size_t kUpdateChunkWords = 4 * kKernelChunk;
}  // namespace

CountMinLevels::CountMinLevels(size_t width, size_t depth, uint64_t seed)
    : width_(width) {
  OPTHASH_CHECK_GE(width, 1u);
  OPTHASH_CHECK_GE(depth, 1u);
  Rng rng(seed);
  hashes_.reserve(depth);
  kernel_params_.reserve(depth);
  for (size_t level = 0; level < depth; ++level) {
    hashes_.emplace_back(width, rng);
    kernel_params_.push_back(kernels::HashKernelParams::From(hashes_.back()));
  }
}

uint64_t CountMinLevels::Estimate(const uint64_t* counters,
                                  uint64_t key) const {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (size_t level = 0; level < hashes_.size(); ++level) {
    best = std::min(best, counters[Index(level, key)]);
  }
  return best;
}

void CountMinLevels::EstimateBatch(const uint64_t* counters,
                                   Span<const uint64_t> keys,
                                   Span<uint64_t> out) const {
  OPTHASH_CHECK_EQ(keys.size(), out.size());
  // Level-major per block: one counter row at a time, min-folding into
  // out, so the row's cache lines are touched together.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  uint64_t idx[kKernelChunk];
  for (size_t begin = 0; begin < keys.size(); begin += kKernelChunk) {
    const size_t block = std::min(kKernelChunk, keys.size() - begin);
    uint64_t* out_block = out.data() + begin;
    for (size_t i = 0; i < block; ++i) {
      out_block[i] = std::numeric_limits<uint64_t>::max();
    }
    for (size_t level = 0; level < hashes_.size(); ++level) {
      ops.hash_buckets(kernel_params_[level], keys.data() + begin, block,
                       idx);
      ops.min_gather_u64(counters + level * width_, idx, block, out_block);
    }
  }
}

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed,
                               bool conservative_update)
    : width_(width),
      depth_(depth),
      seed_(seed),
      conservative_update_(conservative_update),
      levels_(width, depth, seed),
      counters_(width * depth, 0) {}

Result<CountMinSketch> CountMinSketch::FromErrorBounds(double epsilon,
                                                       double delta,
                                                       uint64_t seed) {
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (delta <= 0.0 || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  const auto width =
      static_cast<size_t>(std::ceil(std::exp(1.0) / epsilon));
  const auto depth = static_cast<size_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<size_t>(depth, 1), seed);
}

void CountMinSketch::Update(uint64_t key, uint64_t count) {
  total_count_ += count;
  if (!conservative_update_) {
    for (size_t level = 0; level < depth_; ++level) {
      counters_[levels_.Index(level, key)] += count;
    }
    return;
  }
  // Conservative update: new value for every level is
  // max(counter, current_estimate + count).
  uint64_t current = std::numeric_limits<uint64_t>::max();
  for (size_t level = 0; level < depth_; ++level) {
    current = std::min(current, counters_[levels_.Index(level, key)]);
  }
  const uint64_t target = current + count;
  for (size_t level = 0; level < depth_; ++level) {
    uint64_t& counter = counters_[levels_.Index(level, key)];
    counter = std::max(counter, target);
  }
}

void CountMinSketch::UpdateBatch(Span<const uint64_t> keys) {
  const size_t words = HashedWordsPerKey();
  if (words == 0 || words > kUpdateChunkWords) {
    // Conservative, or deeper than the chunk holds one key of.
    for (uint64_t key : keys) Update(key);
    return;
  }
  uint64_t staged[kUpdateChunkWords];
  const size_t chunk = kUpdateChunkWords / words;
  for (size_t begin = 0; begin < keys.size(); begin += chunk) {
    const Span<const uint64_t> block = keys.subspan(begin, chunk);
    HashBatch(block, staged);
    AddHashed(staged, block.size());
  }
}

void CountMinSketch::HashBatch(Span<const uint64_t> keys,
                               uint64_t* staged) const {
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  for (size_t level = 0; level < depth_; ++level) {
    ops.hash_buckets(levels_.kernel_params(level), keys.data(), keys.size(),
                     staged + level * keys.size());
  }
}

void CountMinSketch::AddHashed(const uint64_t* staged, size_t n) {
  OPTHASH_CHECK(!conservative_update_ || n == 0);
  // Plain unit increments commute, so scatter-adding a whole block per
  // level is bit-identical to the per-key loop.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  total_count_ += n;
  for (size_t level = 0; level < depth_; ++level) {
    ops.scatter_add_u64(counters_.data() + level * width_,
                        staged + level * n, n);
  }
}

Status CountMinSketch::Merge(const CountMinSketch& other) {
  if (this == &other) {
    return Status::InvalidArgument("cannot merge a sketch into itself");
  }
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_ ||
      conservative_update_ != other.conservative_update_) {
    return Status::InvalidArgument(
        "CountMinSketch::Merge needs identical geometry, seed and "
        "conservative flag");
  }
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_count_ += other.total_count_;
  return Status::OK();
}

double CountMinSketch::Epsilon() const {
  return std::exp(1.0) / static_cast<double>(width_);
}

double CountMinSketch::Delta() const {
  return std::exp(-static_cast<double>(depth_));
}

namespace {
constexpr uint32_t kCmsPayloadVersion = 1;
constexpr uint32_t kCmsFlagConservative = 1u << 0;
}  // namespace

void CountMinSketch::Serialize(io::ByteWriter& out) const {
  out.WriteU32(kCmsPayloadVersion);
  out.WriteU32(conservative_update_ ? kCmsFlagConservative : 0u);
  out.WriteU64(width_);
  out.WriteU64(depth_);
  out.WriteU64(seed_);
  out.WriteU64(total_count_);
  out.WriteU64Array(counters_);
}

Result<CountMinSketch> CountMinSketch::Deserialize(io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kCmsPayloadVersion) {
    return Status::InvalidArgument("unsupported count-min payload version " +
                                   std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(flags, in.ReadU32());
  if ((flags & ~kCmsFlagConservative) != 0) {
    return Status::InvalidArgument("unknown count-min payload flags");
  }
  OPTHASH_IO_ASSIGN(width, in.ReadU64());
  OPTHASH_IO_ASSIGN(depth, in.ReadU64());
  OPTHASH_IO_ASSIGN(seed, in.ReadU64());
  OPTHASH_IO_ASSIGN(total_count, in.ReadU64());
  if (width == 0 || depth == 0 ||
      width > in.remaining() / sizeof(uint64_t) / depth) {
    return Status::InvalidArgument("count-min geometry exceeds payload");
  }
  CountMinSketch sketch(width, depth, seed,
                        (flags & kCmsFlagConservative) != 0);
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadU64Array(sketch.counters_, width * depth));
  sketch.total_count_ = total_count;
  return sketch;
}

}  // namespace opthash::sketch
