#include "sketch/count_sketch.h"

#include <algorithm>

#include "common/check.h"
#include "sketch/kernels/simd_dispatch.h"

namespace opthash::sketch {

namespace {
// Keys per kernel block in the batch paths. The estimate path keeps a
// (depth x block) level-estimate scratch on the stack, so the block is
// smaller than the CMS one to bound the frame at 32 KiB.
constexpr size_t kBatchChunk = 64;
// UpdateBatch stages every level's buckets and sign buckets of one key
// block at once: 128 keys at depth 4.
constexpr size_t kUpdateChunkWords = 1024;
}  // namespace

CountSketch::CountSketch(size_t width, size_t depth, uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  OPTHASH_CHECK_GE(width, 1u);
  OPTHASH_CHECK_GE(depth, 1u);
  Rng rng(seed);
  bucket_hashes_.reserve(depth);
  sign_hashes_.reserve(depth);
  for (size_t level = 0; level < depth; ++level) {
    bucket_hashes_.emplace_back(width, rng);
    sign_hashes_.emplace_back(rng);
    bucket_params_.push_back(
        kernels::HashKernelParams::From(bucket_hashes_.back()));
    sign_params_.push_back(
        kernels::HashKernelParams::From(sign_hashes_.back().linear()));
  }
  counters_.assign(width * depth, 0);
}

void CountSketch::Update(uint64_t key, int64_t count) {
  for (size_t level = 0; level < depth_; ++level) {
    const int sign = sign_hashes_[level](key);
    counters_[level * width_ + bucket_hashes_[level](key)] += sign * count;
  }
}

void CountSketch::UpdateBatch(Span<const uint64_t> keys) {
  const size_t words = HashedWordsPerKey();
  if (words > kUpdateChunkWords) {
    // Deeper than the chunk holds one key of.
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

void CountSketch::HashBatch(Span<const uint64_t> keys,
                            uint64_t* staged) const {
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  const size_t n = keys.size();
  for (size_t level = 0; level < depth_; ++level) {
    uint64_t* idx = staged + 2 * level * n;
    ops.hash_buckets(bucket_params_[level], keys.data(), n, idx);
    ops.hash_buckets(sign_params_[level], keys.data(), n, idx + n);
  }
}

void CountSketch::AddHashed(const uint64_t* staged, size_t n) {
  // Signed unit increments commute, so scatter-adding a whole block per
  // level is bit-identical to the per-key loop.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  for (size_t level = 0; level < depth_; ++level) {
    const uint64_t* idx = staged + 2 * level * n;
    ops.scatter_add_signed_i64(counters_.data() + level * width_, idx,
                               idx + n, n);
  }
}

Status CountSketch::Merge(const CountSketch& other) {
  if (this == &other) {
    return Status::InvalidArgument("cannot merge a sketch into itself");
  }
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_) {
    return Status::InvalidArgument(
        "CountSketch::Merge needs identical geometry and seed");
  }
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  return Status::OK();
}

namespace {

// Median of the first `depth` entries of `level_estimates` (sorts them in
// place): the middle value for odd depth, the truncated mean of the two
// central values for even depth.
int64_t MedianOfLevels(int64_t* level_estimates, size_t depth) {
  std::sort(level_estimates, level_estimates + depth);
  const size_t mid = depth / 2;
  if (depth % 2 == 1) return level_estimates[mid];
  // Even depth: average of the two central values, rounded toward zero.
  return (level_estimates[mid - 1] + level_estimates[mid]) / 2;
}

// Practical depth ceiling for the stack scratch; d = ceil(ln(1/delta))
// never approaches it (64 levels ~= delta 1e-28).
constexpr size_t kMaxStackDepth = 64;

}  // namespace

int64_t CountSketch::Estimate(uint64_t key) const {
  int64_t stack_scratch[kMaxStackDepth];
  thread_local std::vector<int64_t> heap_scratch;
  int64_t* level_estimates = stack_scratch;
  if (depth_ > kMaxStackDepth) {
    heap_scratch.resize(depth_);
    level_estimates = heap_scratch.data();
  }
  for (size_t level = 0; level < depth_; ++level) {
    const int sign = sign_hashes_[level](key);
    level_estimates[level] =
        sign * counters_[level * width_ + bucket_hashes_[level](key)];
  }
  return MedianOfLevels(level_estimates, depth_);
}

uint64_t CountSketch::EstimateNonNegative(uint64_t key) const {
  const int64_t estimate = Estimate(key);
  return estimate < 0 ? 0 : static_cast<uint64_t>(estimate);
}

void CountSketch::EstimateBatch(Span<const uint64_t> keys,
                                Span<int64_t> out) const {
  OPTHASH_CHECK_EQ(keys.size(), out.size());
  if (depth_ > kMaxStackDepth) {
    // Degenerate geometry: keep the allocation-free per-key path rather
    // than sizing the block scratch for it.
    for (size_t i = 0; i < keys.size(); ++i) out[i] = Estimate(keys[i]);
    return;
  }
  // Level-major per block: signed gathers fill a (depth x block) scratch
  // row by row through the kernel tier, then the per-key median runs over
  // each column. Bit-identical to the per-key Estimate on every tier.
  const kernels::KernelOps& ops = kernels::ActiveKernels();
  uint64_t idx[kBatchChunk];
  uint64_t sign[kBatchChunk];
  int64_t level_scratch[kMaxStackDepth * kBatchChunk];
  int64_t key_scratch[kMaxStackDepth];
  for (size_t begin = 0; begin < keys.size(); begin += kBatchChunk) {
    const size_t block = std::min(kBatchChunk, keys.size() - begin);
    for (size_t level = 0; level < depth_; ++level) {
      ops.hash_buckets(bucket_params_[level], keys.data() + begin, block,
                       idx);
      ops.hash_buckets(sign_params_[level], keys.data() + begin, block,
                       sign);
      ops.gather_signed_i64(counters_.data() + level * width_, idx, sign,
                            block, level_scratch + level * block);
    }
    for (size_t i = 0; i < block; ++i) {
      for (size_t level = 0; level < depth_; ++level) {
        key_scratch[level] = level_scratch[level * block + i];
      }
      out[begin + i] = MedianOfLevels(key_scratch, depth_);
    }
  }
}

void CountSketch::EstimateNonNegativeBatch(Span<const uint64_t> keys,
                                           Span<uint64_t> out) const {
  OPTHASH_CHECK_EQ(keys.size(), out.size());
  int64_t signed_block[kBatchChunk];
  for (size_t begin = 0; begin < keys.size(); begin += kBatchChunk) {
    const size_t block = std::min(kBatchChunk, keys.size() - begin);
    EstimateBatch(Span<const uint64_t>(keys.data() + begin, block),
                  Span<int64_t>(signed_block, block));
    for (size_t i = 0; i < block; ++i) {
      const int64_t estimate = signed_block[i];
      out[begin + i] = estimate < 0 ? 0 : static_cast<uint64_t>(estimate);
    }
  }
}

namespace {
constexpr uint32_t kCountSketchPayloadVersion = 1;
}  // namespace

void CountSketch::Serialize(io::ByteWriter& out) const {
  out.WriteU32(kCountSketchPayloadVersion);
  out.WriteU32(0);  // reserved
  out.WriteU64(width_);
  out.WriteU64(depth_);
  out.WriteU64(seed_);
  out.WriteI64Array(counters_);
}

Result<CountSketch> CountSketch::Deserialize(io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kCountSketchPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported count-sketch payload version " +
        std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(reserved, in.ReadU32());
  if (reserved != 0) {
    return Status::InvalidArgument("non-zero count-sketch reserved field");
  }
  OPTHASH_IO_ASSIGN(width, in.ReadU64());
  OPTHASH_IO_ASSIGN(depth, in.ReadU64());
  OPTHASH_IO_ASSIGN(seed, in.ReadU64());
  if (width == 0 || depth == 0 ||
      width > in.remaining() / sizeof(int64_t) / depth) {
    return Status::InvalidArgument("count-sketch geometry exceeds payload");
  }
  CountSketch sketch(width, depth, seed);
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadI64Array(sketch.counters_, width * depth));
  return sketch;
}

}  // namespace opthash::sketch
