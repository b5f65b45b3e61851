#include <cstddef>
#include <cstdint>

#include "hashing/hash_functions.h"
#include "sketch/kernels/kernels.h"

namespace opthash::sketch::kernels {
namespace {

// How many elements ahead of the consuming load the gather loops issue a
// prefetch. Covers roughly one L2 miss at typical probe rates without
// running past the batch for the block sizes the sketches use.
constexpr size_t kPrefetchDistance = 16;

void HashBucketsScalar(const HashKernelParams& h, const uint64_t* keys,
                       size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = KernelHashOne(h, keys[i]);
  }
}

void MinGatherU64Scalar(const uint64_t* row, const uint64_t* idx, size_t n,
                        uint64_t* inout_min) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      PrefetchRead(row + idx[i + kPrefetchDistance]);
    }
    const uint64_t value = row[idx[i]];
    if (value < inout_min[i]) inout_min[i] = value;
  }
}

void GatherSignedI64Scalar(const int64_t* row, const uint64_t* idx,
                           const uint64_t* sign_bucket, size_t n,
                           int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      PrefetchRead(row + idx[i + kPrefetchDistance]);
    }
    const int64_t value = row[idx[i]];
    out[i] = sign_bucket[i] == 0 ? -value : value;
  }
}

void ScatterAddU64Scalar(uint64_t* row, const uint64_t* idx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      PrefetchRead(row + idx[i + kPrefetchDistance]);
    }
    ++row[idx[i]];
  }
}

void ScatterAddSignedI64Scalar(int64_t* row, const uint64_t* idx,
                               const uint64_t* sign_bucket, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      PrefetchRead(row + idx[i + kPrefetchDistance]);
    }
    // (all ones or 0) | 1 is -1 or +1. Written this way the compiler
    // keeps it branch-free; a branch on a sign that is a fair coin would
    // be mispredicted on about every other key.
    row[idx[i]] += -static_cast<int64_t>(sign_bucket[i] == 0) | 1;
  }
}

}  // namespace

HashKernelParams HashKernelParams::From(const hashing::LinearHash& hash) {
  HashKernelParams params;
  params.a = hash.a();
  params.b = hash.b();
  params.range = hash.range();
  if (params.range <= 1) {
    params.mod = ModKind::kZero;
  } else if (params.range >= (1ULL << 61)) {
    // Reduced values are < 2^61 - 1, so `% range` cannot change them.
    params.mod = ModKind::kIdentity;
  } else if ((params.range & (params.range - 1)) == 0) {
    // A power of two: value mod 2^k keeps the low k bits.
    params.mod = ModKind::kMask;
  } else {
    // Exact multiply-shift: shift = 61 + ceil(log2 range) and
    // magic = floor(2^shift / range) + 1 make (magic * value) >> shift
    // equal floor(value / range) for every value < 2^61. magic fits in
    // 64 bits because shift - ceil(log2 range) = 61 keeps it <= 2^62.
    const uint32_t ceil_log2 =
        64 - static_cast<uint32_t>(__builtin_clzll(params.range - 1));
    params.shift = 61 + ceil_log2;
    const __uint128_t numerator = static_cast<__uint128_t>(1)
                                  << params.shift;
    params.magic = static_cast<uint64_t>(numerator / params.range) + 1;
    params.mod = ModKind::kMagic;
  }
  return params;
}

const KernelOps& ScalarKernels() {
  static const KernelOps kOps = {
      HashBucketsScalar,   MinGatherU64Scalar,       GatherSignedI64Scalar,
      ScatterAddU64Scalar, ScatterAddSignedI64Scalar};
  return kOps;
}

}  // namespace opthash::sketch::kernels
