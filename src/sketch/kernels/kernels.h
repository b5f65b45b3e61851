#ifndef OPTHASH_SKETCH_KERNELS_KERNELS_H_
#define OPTHASH_SKETCH_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "hashing/hash_functions.h"

/// \file
/// \brief The sketch kernel layer: batch primitives behind the sketches'
/// `UpdateBatch`/`EstimateBatch` hot loops, with scalar and AVX2
/// implementations selected at runtime (sketch/kernels/simd_dispatch.h).
///
/// Contract (the differential suite in tests/kernel_differential_test.cc
/// holds every tier to it):
///
///  * Bit-identity. Every tier computes exactly the same values as the
///    reference scalar path — `((a*x + b) mod (2^61-1)) mod range` for
///    hashing (the 2-universal hashing::LinearHash), plain u64/i64
///    arithmetic for gathers and scatters. No tier is allowed to trade
///    accuracy for speed: estimates AND counter tables must match the
///    scalar tier byte for byte on every input.
///
///  * Layout. Counter tables are flat row-major `depth x width` arrays
///    (one contiguous row per level), exactly as the sketches and the
///    zero-copy mapped views already store them; a batch probe walks one
///    row at a time so a (depth x key-block) probe group touches each
///    row's cachelines in one run.
///
///  * Alignment. Rows must be 8-byte aligned (natural u64/i64 alignment:
///    std::vector storage and the 8-aligned snapshot payloads both
///    qualify). No tier requires 32-byte alignment — the vector paths
///    use unaligned loads and element gathers.
///
///  * Scatters are sequential in every tier. Updates can carry duplicate
///    keys in one batch; a parallel scatter would have to resolve
///    intra-batch index collisions. All tiers share the scalar scatter
///    loops (the vector win on the update path is the hashing), which
///    also keeps counter tables bit-identical by construction.
///
/// The `% range` step is the scalar path's bottleneck (a 64-bit hardware
/// divide per probe). A power-of-two range 2^k reduces by a mask:
/// v mod 2^k == v & (2^k - 1) for every v, so no multiply is needed at
/// all. Every other range uses an exact multiply-shift: for divisor d
/// and dividend n < 2^61 (every reduced hash value), q = (m*n) >> F
/// with F = 61 + ceil(log2 d) and m = floor(2^F / d) + 1 gives
/// q = floor(n/d) exactly — the classic Granlund-Montgomery/Lemire
/// bound, valid here because
/// e*n <= d*(2^61-1) < 2^F for e = d - (2^F mod d). Exactness is what
/// keeps vector tiers bit-identical to `LinearHash::operator()`, and is
/// re-proven against it on random draws by the differential suite.
namespace opthash::sketch::kernels {

/// 2^61 - 1, the Mersenne prime the 2-universal hashes reduce over.
constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;

/// How a HashKernelParams maps the reduced value into [0, range).
enum class ModKind : uint8_t {
  kZero = 0,      ///< range == 1: every key lands in bucket 0.
  kMagic = 1,     ///< Other 2 < range < 2^61: exact multiply-shift.
  kIdentity = 2,  ///< range >= 2^61 > max reduced value: no-op.
  kMask = 3,      ///< range = 2^k in [2, 2^60]: value & (range - 1).
};

/// Precomputed per-hash-function constants for the kernel hash path: the
/// LinearHash coefficients plus the exact mask or magic-multiply
/// replacement for `% range`. Built once per sketch level at construction
/// time.
struct HashKernelParams {
  uint64_t a = 1;      ///< Multiplier in [1, 2^61-2].
  uint64_t b = 0;      ///< Offset in [0, 2^61-2].
  uint64_t range = 1;  ///< Bucket count.
  uint64_t magic = 0;  ///< m = floor(2^shift / range) + 1 (kMagic only).
  uint32_t shift = 0;  ///< F = 61 + ceil(log2 range), in [62, 122].
  ModKind mod = ModKind::kZero;

  /// Derives the kernel constants from a drawn LinearHash. The kernels
  /// then compute exactly `hash(key)` for every key.
  static HashKernelParams From(const hashing::LinearHash& hash);
};

/// key mod (2^61-1), canonical in [0, 2^61-2]: Mersenne fold + one
/// conditional subtract (the fold of a u64 is < 2^61 + 8 < 2p).
inline uint64_t Mod61(uint64_t key) {
  uint64_t folded = (key & kMersenne61) + (key >> 61);
  if (folded >= kMersenne61) folded -= kMersenne61;
  return folded;
}

/// (a*x + b) mod (2^61-1), canonical, for a, x, b < 2^61 — identical to
/// the LinearHash Mersenne reduction.
inline uint64_t MulAddMod61(uint64_t a, uint64_t x, uint64_t b) {
  const __uint128_t product = static_cast<__uint128_t>(a) * x + b;
  const uint64_t lo = static_cast<uint64_t>(product) & kMersenne61;
  const uint64_t hi = static_cast<uint64_t>(product >> 61);
  uint64_t result = lo + hi;
  if (result >= kMersenne61) result -= kMersenne61;
  return result;
}

/// value mod range via the mask or the precomputed magic constants;
/// exact for every value < 2^61 (see the file header for the bound).
inline uint64_t MagicMod(const HashKernelParams& h, uint64_t value) {
  switch (h.mod) {
    case ModKind::kZero:
      return 0;
    case ModKind::kIdentity:
      return value;
    case ModKind::kMask:
      return value & (h.range - 1);
    case ModKind::kMagic:
      break;
  }
  const uint64_t quotient = static_cast<uint64_t>(
      (static_cast<__uint128_t>(h.magic) * value) >> h.shift);
  return value - quotient * h.range;
}

/// The full scalar kernel hash — bit-identical to `LinearHash(key)` for
/// the LinearHash the params were built from. Shared by the scalar tier
/// and every vector tier's unaligned tail.
inline uint64_t KernelHashOne(const HashKernelParams& h, uint64_t key) {
  return MagicMod(h, MulAddMod61(h.a, Mod61(key), h.b));
}

/// A CountSketch counter read with its key's sign: `value` negated when
/// `sign_bucket` is 0, kept when it is 1. The sign is a fair coin, so this
/// stays branch-free (a branch would mispredict on about every other
/// key), and it negates through uint64_t, so INT64_MIN wraps to itself
/// instead of overflowing. Shared by the scalar gather and the vector
/// tiers' tails.
inline int64_t ApplySign(int64_t value, uint64_t sign_bucket) {
  const uint64_t flip = 0 - static_cast<uint64_t>(sign_bucket == 0);
  return static_cast<int64_t>((static_cast<uint64_t>(value) ^ flip) - flip);
}

/// Read-prefetch hint; no-op where unsupported. The gather kernels issue
/// it a fixed distance ahead of the consuming loads so row misses overlap
/// instead of serializing.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, 0, 2);
#else
  (void)address;
#endif
}

/// One tier's implementation set. Each function pointer is a kernel
/// entry point: tools/lint/opthash_lint.py requires a named case for
/// every field in tests/kernel_differential_test.cc, so no entry point
/// can gain a vector variant without differential coverage.
struct KernelOps {
  /// out[i] = hash(keys[i]) for the hash described by `h` — the batch
  /// bucket-index computation every probe and update pass starts with.
  void (*hash_buckets)(const HashKernelParams& h, const uint64_t* keys,
                       size_t n, uint64_t* out);

  /// inout_min[i] = min(inout_min[i], row[idx[i]]) — the CMS min-fold
  /// over one counter row (values are arbitrary u64; the comparison is
  /// unsigned even in the vector tiers).
  void (*min_gather_u64)(const uint64_t* row, const uint64_t* idx, size_t n,
                         uint64_t* inout_min);

  /// out[i] = sign_bucket[i] == 0 ? -row[idx[i]] : row[idx[i]] — the
  /// CountSketch per-level signed gather (a range-2 LinearHash bucket of
  /// 0 means sign -1, matching hashing::SignHash).
  void (*gather_signed_i64)(const int64_t* row, const uint64_t* idx,
                            const uint64_t* sign_bucket, size_t n,
                            int64_t* out);

  /// row[idx[i]] += 1 for each i in order (sequential in every tier; see
  /// the scatter contract above).
  void (*scatter_add_u64)(uint64_t* row, const uint64_t* idx, size_t n);

  /// row[idx[i]] += sign_bucket[i] == 0 ? -1 : +1, in order.
  void (*scatter_add_signed_i64)(int64_t* row, const uint64_t* idx,
                                 const uint64_t* sign_bucket, size_t n);
};

/// The always-available reference tier (plain loops + prefetch, exact
/// magic-mod hashing).
const KernelOps& ScalarKernels();

/// The AVX2 tier, or nullptr when the build target or the running CPU
/// lacks AVX2. Compiled via function-level target("avx2") attributes, so
/// no translation unit needs special flags and calling this probe is
/// always safe.
const KernelOps* Avx2KernelsOrNull();

}  // namespace opthash::sketch::kernels

#endif  // OPTHASH_SKETCH_KERNELS_KERNELS_H_
