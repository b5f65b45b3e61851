#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OPTHASH_KERNELS_AVX2_TU 1
#include <immintrin.h>
#endif

namespace opthash::sketch::kernels {

#ifdef OPTHASH_KERNELS_AVX2_TU

// Every function carrying AVX2 instructions is annotated with a
// function-level target attribute instead of compiling the whole file
// with -mavx2, so nothing here can leak vector instructions into code
// that runs before the runtime CPU check in Avx2KernelsOrNull().
#define OPTHASH_AVX2_FN __attribute__((target("avx2")))

namespace {

constexpr size_t kPrefetchDistance = 16;

OPTHASH_AVX2_FN inline __m256i Splat64(uint64_t value) {
  return _mm256_set1_epi64x(static_cast<long long>(value));
}

// Canonicalizes t < 2^62 into [0, 2^61 - 1): one conditional subtract.
// The signed compare is safe because both operands are < 2^62.
OPTHASH_AVX2_FN inline __m256i CanonicalSub61(__m256i t) {
  const __m256i p = Splat64(kMersenne61);
  const __m256i p_minus_1 = Splat64(kMersenne61 - 1);
  const __m256i ge = _mm256_cmpgt_epi64(t, p_minus_1);
  return _mm256_sub_epi64(t, _mm256_and_si256(ge, p));
}

// key mod (2^61 - 1), canonical, for arbitrary u64 lanes (the fold of a
// u64 is < 2^61 + 8, so one conditional subtract suffices).
OPTHASH_AVX2_FN inline __m256i Mod61Vec(__m256i x) {
  const __m256i p = Splat64(kMersenne61);
  const __m256i folded =
      _mm256_add_epi64(_mm256_and_si256(x, p), _mm256_srli_epi64(x, 61));
  return CanonicalSub61(folded);
}

// The vector twin of KernelHashOne. AVX2 has no 64x64 multiply, so both
// products are built from 32-bit limbs via _mm256_mul_epu32:
//
//   a*x = p0 + (p1 + p2)*2^32 + p3*2^64   (pK = limb cross products)
//
// reduced mod 2^61-1 by weight folding (2^61 = 1, 2^64 = 8), then
// masked (a power-of-two range) or reduced by the magic-multiply
// quotient from an emulated 128-bit product with explicit carry. All
// intermediate sums are bounded < 2^63 + 2^34, so nothing wraps; the
// final residues are canonical and therefore bit-identical to the
// scalar path.
OPTHASH_AVX2_FN void HashBucketsAvx2(const HashKernelParams& h,
                                     const uint64_t* keys, size_t n,
                                     uint64_t* out) {
  if (h.mod == ModKind::kZero) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const size_t vec_n = n & ~size_t{3};
  const __m256i p = Splat64(kMersenne61);
  const __m256i m29 = Splat64((1ULL << 29) - 1);
  const __m256i m32 = Splat64(0xffffffffULL);
  const __m256i a_lo = Splat64(h.a & 0xffffffffULL);
  const __m256i a_hi = Splat64(h.a >> 32);
  const __m256i b = Splat64(h.b);
  const bool magic = h.mod == ModKind::kMagic;
  const bool mask = h.mod == ModKind::kMask;
  const __m256i low_bits = Splat64(h.range - 1);
  const __m256i m_lo = Splat64(h.magic & 0xffffffffULL);
  const __m256i m_hi = Splat64(h.magic >> 32);
  const __m256i d = Splat64(h.range);
  const __m256i d_hi = _mm256_srli_epi64(d, 32);
  const bool wide_shift = h.shift >= 64;
  const __m128i shift_hi = _mm_cvtsi32_si128(
      static_cast<int>(wide_shift ? h.shift - 64 : 64 - h.shift));
  const __m128i shift_lo =
      _mm_cvtsi32_si128(static_cast<int>(wide_shift ? 0 : h.shift));
  for (size_t i = 0; i < vec_n; i += 4) {
    __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    x = Mod61Vec(x);
    const __m256i x_hi = _mm256_srli_epi64(x, 32);
    const __m256i p0 = _mm256_mul_epu32(a_lo, x);
    const __m256i p1 = _mm256_mul_epu32(a_lo, x_hi);
    const __m256i p2 = _mm256_mul_epu32(a_hi, x);
    const __m256i p3 = _mm256_mul_epu32(a_hi, x_hi);
    const __m256i mid = _mm256_add_epi64(p1, p2);
    const __m256i sum = _mm256_add_epi64(
        _mm256_add_epi64(
            _mm256_slli_epi64(p3, 3),
            _mm256_add_epi64(
                _mm256_srli_epi64(mid, 29),
                _mm256_slli_epi64(_mm256_and_si256(mid, m29), 32))),
        _mm256_add_epi64(
            _mm256_add_epi64(_mm256_and_si256(p0, p),
                             _mm256_srli_epi64(p0, 61)),
            b));
    const __m256i folded = _mm256_add_epi64(_mm256_and_si256(sum, p),
                                            _mm256_srli_epi64(sum, 61));
    __m256i r = CanonicalSub61(folded);
    if (magic) {
      const __m256i n_hi = _mm256_srli_epi64(r, 32);
      const __m256i q0 = _mm256_mul_epu32(m_lo, r);
      const __m256i q1 = _mm256_mul_epu32(m_lo, n_hi);
      const __m256i q2 = _mm256_mul_epu32(m_hi, r);
      const __m256i q3 = _mm256_mul_epu32(m_hi, n_hi);
      const __m256i mid_lo = _mm256_add_epi64(_mm256_and_si256(q1, m32),
                                              _mm256_and_si256(q2, m32));
      const __m256i carry = _mm256_srli_epi64(
          _mm256_add_epi64(_mm256_srli_epi64(q0, 32), mid_lo), 32);
      const __m256i hi = _mm256_add_epi64(
          _mm256_add_epi64(q3, carry),
          _mm256_add_epi64(_mm256_srli_epi64(q1, 32),
                           _mm256_srli_epi64(q2, 32)));
      __m256i q;
      if (wide_shift) {
        q = _mm256_srl_epi64(hi, shift_hi);
      } else {
        const __m256i lo = _mm256_add_epi64(
            q0, _mm256_slli_epi64(_mm256_add_epi64(q1, q2), 32));
        q = _mm256_or_si256(_mm256_srl_epi64(lo, shift_lo),
                            _mm256_sll_epi64(hi, shift_hi));
      }
      const __m256i q_times_d = _mm256_add_epi64(
          _mm256_mul_epu32(q, d),
          _mm256_slli_epi64(
              _mm256_add_epi64(_mm256_mul_epu32(q, d_hi),
                               _mm256_mul_epu32(_mm256_srli_epi64(q, 32),
                                                d)),
              32));
      r = _mm256_sub_epi64(r, q_times_d);
    } else if (mask) {
      r = _mm256_and_si256(r, low_bits);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), r);
  }
  for (size_t i = vec_n; i < n; ++i) {
    out[i] = KernelHashOne(h, keys[i]);
  }
}

OPTHASH_AVX2_FN void MinGatherU64Avx2(const uint64_t* row,
                                      const uint64_t* idx, size_t n,
                                      uint64_t* inout_min) {
  const size_t vec_n = n & ~size_t{3};
  const __m256i top = Splat64(0x8000000000000000ULL);
  for (size_t i = 0; i < vec_n; i += 4) {
    for (size_t j = i + kPrefetchDistance;
         j < i + kPrefetchDistance + 4 && j < n; ++j) {
      PrefetchRead(row + idx[j]);
    }
    const __m256i vidx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    const __m256i value = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(row), vidx, 8);
    const __m256i current = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(inout_min + i));
    // Unsigned 64-bit min: bias both sides by the top bit so the signed
    // compare orders them as unsigned, then keep the smaller.
    const __m256i current_gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(current, top),
                           _mm256_xor_si256(value, top));
    const __m256i lower = _mm256_blendv_epi8(current, value, current_gt);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(inout_min + i), lower);
  }
  for (size_t i = vec_n; i < n; ++i) {
    const uint64_t value = row[idx[i]];
    if (value < inout_min[i]) inout_min[i] = value;
  }
}

OPTHASH_AVX2_FN void GatherSignedI64Avx2(const int64_t* row,
                                         const uint64_t* idx,
                                         const uint64_t* sign_bucket,
                                         size_t n, int64_t* out) {
  const size_t vec_n = n & ~size_t{3};
  const __m256i zero = _mm256_setzero_si256();
  for (size_t i = 0; i < vec_n; i += 4) {
    for (size_t j = i + kPrefetchDistance;
         j < i + kPrefetchDistance + 4 && j < n; ++j) {
      PrefetchRead(row + idx[j]);
    }
    const __m256i vidx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(idx + i));
    const __m256i value = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(row), vidx, 8);
    const __m256i sign = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sign_bucket + i));
    const __m256i negated = _mm256_sub_epi64(zero, value);
    const __m256i is_minus = _mm256_cmpeq_epi64(sign, zero);
    const __m256i signed_value =
        _mm256_blendv_epi8(value, negated, is_minus);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), signed_value);
  }
  for (size_t i = vec_n; i < n; ++i) {
    const int64_t value = row[idx[i]];
    out[i] = sign_bucket[i] == 0 ? -value : value;
  }
}

}  // namespace

const KernelOps* Avx2KernelsOrNull() {
  if (!__builtin_cpu_supports("avx2")) return nullptr;
  // Scatters stay on the shared scalar loops per the KernelOps contract
  // (duplicate keys in one batch make a parallel scatter unsound).
  static const KernelOps kOps = {
      HashBucketsAvx2, MinGatherU64Avx2, GatherSignedI64Avx2,
      ScalarKernels().scatter_add_u64,
      ScalarKernels().scatter_add_signed_i64};
  return &kOps;
}

#else  // !OPTHASH_KERNELS_AVX2_TU

const KernelOps* Avx2KernelsOrNull() { return nullptr; }

#endif  // OPTHASH_KERNELS_AVX2_TU

}  // namespace opthash::sketch::kernels
