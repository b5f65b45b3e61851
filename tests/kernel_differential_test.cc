// Property-style differential coverage for the SIMD kernel layer
// (src/sketch/kernels/): every dispatch tier available on this host must
// produce BIT-IDENTICAL results — estimates and raw counter tables — to
// the untouched per-key scalar reference paths, across random
// geometries, seeds, and batch sizes, including empty/single-item/
// unaligned-tail edges, the mmap view, and the windowed rings.
//
// Each KernelOps entry point has a named case here; the project linter
// (tools/lint/opthash_lint.py) enforces that lockstep, so a kernel can
// only gain a new entry point together with differential coverage.
//
// When OPTHASH_SIMD pins a tier (the scalar-forced CI leg), the suite
// honors the pin and tests that tier alone instead of force-switching
// past the override.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "artifact_test_util.h"
#include "common/random.h"
#include "common/span.h"
#include "hashing/hash_functions.h"
#include "io/bytes.h"
#include "io/sketch_snapshot.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/kernels/kernels.h"
#include "sketch/kernels/simd_dispatch.h"
#include "sketch/learned_count_min.h"
#include "sketch/windowed_sketch.h"

namespace opthash::sketch {
namespace {

using kernels::ActiveKernelTier;
using kernels::ForceKernelTier;
using kernels::HashKernelParams;
using kernels::KernelOps;
using kernels::KernelTier;
using kernels::KernelTierName;
using kernels::ResetKernelTierForTest;

// Restores default tier selection when a test body returns.
struct TierGuard {
  ~TierGuard() { ResetKernelTierForTest(); }
};

// The tiers a differential case iterates: every available tier normally,
// only the pinned tier when OPTHASH_SIMD is set (CI forces scalar and
// the suite must not switch away from it).
std::vector<KernelTier> TiersUnderTest() {
  if (const char* env = std::getenv("OPTHASH_SIMD");
      env != nullptr && env[0] != '\0') {
    return {ActiveKernelTier()};
  }
  return kernels::AvailableKernelTiers();
}

// Batch sizes hitting the empty, single-item, sub-vector, exact-vector,
// and unaligned-tail shapes of every kernel loop.
const size_t kBatchSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 65, 257};

std::vector<uint64_t> RandomKeys(size_t n, Rng& rng) {
  std::vector<uint64_t> keys(n);
  for (auto& key : keys) key = rng.NextUint64();
  return keys;
}

template <typename Sketch>
std::vector<uint8_t> CounterTableBytes(const Sketch& sketch) {
  io::ByteWriter writer;
  sketch.Serialize(writer);
  return writer.TakeBytes();
}

// ---------------------------------------------------------------------
// Kernel entry points, one named case each (linter-enforced lockstep).
// ---------------------------------------------------------------------

// hash_buckets: every tier must reproduce LinearHash bit for bit,
// including the degenerate ranges (1 maps everything to bucket 0;
// >= 2^61 leaves the reduced value unchanged), the mask of a
// power-of-two range (2, 64, 16384, 2^16, 2^60) and the magic-multiply
// remainder for everything else in between.
TEST(KernelHashBuckets, EveryTierMatchesLinearHashExactly) {
  Rng rng(101);
  const uint64_t ranges[] = {1,
                             2,
                             3,
                             5,
                             64,
                             1000,
                             16384,
                             1ULL << 16,
                             (1ULL << 32) + 7,
                             1ULL << 60,
                             (1ULL << 61) - 3,
                             (1ULL << 61) + 9,
                             std::numeric_limits<uint64_t>::max()};
  for (const uint64_t fixed_range : ranges) {
    for (int draw = 0; draw < 8; ++draw) {
      const uint64_t a =
          1 + rng.NextBounded(hashing::LinearHash::kPrime - 1);
      const uint64_t b = rng.NextBounded(hashing::LinearHash::kPrime);
      const hashing::LinearHash hash(fixed_range, a, b);
      const HashKernelParams params = HashKernelParams::From(hash);
      for (const size_t n : kBatchSizes) {
        const std::vector<uint64_t> keys = RandomKeys(n, rng);
        std::vector<uint64_t> out(n + 1, 0xabababababababab);
        for (const KernelTier tier : TiersUnderTest()) {
          const KernelOps* ops = [&] {
            EXPECT_TRUE(ForceKernelTier(tier).ok());
            return &kernels::ActiveKernels();
          }();
          ops->hash_buckets(params, keys.data(), n, out.data());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(out[i], hash(keys[i]))
                << "tier=" << KernelTierName(tier)
                << " range=" << fixed_range << " i=" << i;
          }
          // The kernel must not write past n.
          ASSERT_EQ(out[n], 0xabababababababab);
        }
      }
    }
  }
  ResetKernelTierForTest();
}

// HashKernelParams::From picks the reduction every tier then applies:
// the mask exactly for the powers of two in [2, 2^60], the identity from
// 2^61 up (a reduced value is below 2^61 - 1), zero at range 1 and the
// magic multiply everywhere else.
TEST(KernelHashParams, FromPicksMaskExactlyForPowersOfTwo) {
  const auto mod_of = [](uint64_t range) {
    return HashKernelParams::From(hashing::LinearHash(range, 1, 0)).mod;
  };
  EXPECT_EQ(mod_of(1), kernels::ModKind::kZero);
  for (int k = 1; k <= 60; ++k) {
    const uint64_t power = 1ULL << k;
    EXPECT_EQ(mod_of(power), kernels::ModKind::kMask) << "2^" << k;
    EXPECT_EQ(mod_of(power + 1), kernels::ModKind::kMagic) << "2^" << k;
    if (k >= 2) {
      EXPECT_EQ(mod_of(power - 1), kernels::ModKind::kMagic) << "2^" << k;
    }
  }
  EXPECT_EQ(mod_of((1ULL << 61) - 1), kernels::ModKind::kMagic);
  for (int k = 61; k <= 63; ++k) {
    EXPECT_EQ(mod_of(1ULL << k), kernels::ModKind::kIdentity) << "2^" << k;
    EXPECT_EQ(mod_of((1ULL << k) + 1), kernels::ModKind::kIdentity)
        << "2^" << k;
  }
  EXPECT_EQ(mod_of(std::numeric_limits<uint64_t>::max()),
            kernels::ModKind::kIdentity);
  Rng rng(102);
  for (int draw = 0; draw < 1000; ++draw) {
    const uint64_t range = 2 + rng.NextBounded((1ULL << 61) - 2);
    const bool power_of_two = (range & (range - 1)) == 0;
    EXPECT_EQ(mod_of(range), power_of_two ? kernels::ModKind::kMask
                                          : kernels::ModKind::kMagic)
        << "range=" << range;
  }
}

// min_gather_u64: unsigned min-fold over a counter row, compared against
// the obvious per-element loop. Seeds include UINT64_MAX (the batch
// initial value) and 0 so the unsigned comparison in the vector tiers is
// exercised across the sign-bit boundary.
TEST(KernelMinGatherU64, EveryTierMatchesReferenceFold) {
  Rng rng(202);
  std::vector<uint64_t> row(512);
  for (auto& value : row) {
    // Mix huge and tiny counters so top-bit-set values appear.
    value = rng.NextBounded(4) == 0 ? ~rng.NextUint64() >> 1
                                    : rng.NextUint64();
  }
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> idx(n);
    std::vector<uint64_t> seed(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = rng.NextBounded(row.size());
      seed[i] = rng.NextBounded(3) == 0
                    ? std::numeric_limits<uint64_t>::max()
                    : rng.NextUint64();
    }
    std::vector<uint64_t> expected = seed;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = std::min(expected[i], row[idx[i]]);
    }
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<uint64_t> got = seed;
      kernels::ActiveKernels().min_gather_u64(row.data(), idx.data(), n,
                                              got.data());
      ASSERT_EQ(got, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
  ResetKernelTierForTest();
}

// gather_signed_i64: the CountSketch signed gather (sign bucket 0 means
// negate), against the reference loop, with negative counters present.
TEST(KernelGatherSignedI64, EveryTierMatchesReferenceGather) {
  Rng rng(303);
  std::vector<int64_t> row(512);
  for (auto& value : row) value = static_cast<int64_t>(rng.NextUint64());
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> idx(n);
    std::vector<uint64_t> sign(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = rng.NextBounded(row.size());
      sign[i] = rng.NextBounded(2);
    }
    std::vector<int64_t> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = sign[i] == 0 ? -row[idx[i]] : row[idx[i]];
    }
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<int64_t> got(n, -1);
      kernels::ActiveKernels().gather_signed_i64(row.data(), idx.data(),
                                                 sign.data(), n,
                                                 got.data());
      ASSERT_EQ(got, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
  ResetKernelTierForTest();
}

// gather_signed_i64 at the counter extremes, on the vector body and the
// tail alike: a negative sign negates through two's complement, so
// INT64_MIN maps to itself instead of overflowing.
TEST(KernelGatherSignedI64, ExtremeCountersNegateWithoutOverflow) {
  const std::vector<int64_t> row = {INT64_MIN, INT64_MAX, -1, 0};
  std::vector<uint64_t> idx;
  std::vector<uint64_t> sign;
  std::vector<int64_t> expected;
  for (uint64_t i = 0; i < 2 * row.size() + 1; ++i) {
    idx.push_back(i % row.size());
    sign.push_back((i / row.size()) % 2);
  }
  for (size_t i = 0; i < idx.size(); ++i) {
    const int64_t value = row[idx[i]];
    expected.push_back(sign[i] == 1 || value == INT64_MIN ? value : -value);
  }
  for (const KernelTier tier : TiersUnderTest()) {
    ASSERT_TRUE(ForceKernelTier(tier).ok());
    std::vector<int64_t> got(idx.size(), 7);
    kernels::ActiveKernels().gather_signed_i64(row.data(), idx.data(),
                                               sign.data(), idx.size(),
                                               got.data());
    EXPECT_EQ(got, expected) << "tier=" << KernelTierName(tier);
  }
  ResetKernelTierForTest();
}

// scatter_add_u64: heavy duplicate indices — every tier must apply all
// increments (the contract pins scatters to the shared sequential loop
// precisely so intra-batch collisions cannot be lost).
TEST(KernelScatterAddU64, EveryTierAppliesDuplicateIndices) {
  Rng rng(404);
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> idx(n);
    for (auto& index : idx) index = rng.NextBounded(8);
    std::vector<uint64_t> expected(16, 0);
    for (size_t i = 0; i < n; ++i) ++expected[idx[i]];
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<uint64_t> row(16, 0);
      kernels::ActiveKernels().scatter_add_u64(row.data(), idx.data(), n);
      ASSERT_EQ(row, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
  ResetKernelTierForTest();
}

// scatter_add_signed_i64: duplicate indices with mixed signs cancel and
// accumulate exactly alike on every tier.
TEST(KernelScatterAddSignedI64, EveryTierAppliesSignedDuplicates) {
  Rng rng(505);
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> idx(n);
    std::vector<uint64_t> sign(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = rng.NextBounded(8);
      sign[i] = rng.NextBounded(2);
    }
    std::vector<int64_t> expected(16, 0);
    for (size_t i = 0; i < n; ++i) {
      expected[idx[i]] += sign[i] == 0 ? -1 : 1;
    }
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<int64_t> row(16, 0);
      kernels::ActiveKernels().scatter_add_signed_i64(
          row.data(), idx.data(), sign.data(), n);
      ASSERT_EQ(row, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
  ResetKernelTierForTest();
}

// ---------------------------------------------------------------------
// Sketch-level differentials: batch paths vs the per-key scalar
// reference, per tier, estimates AND serialized counter tables.
// ---------------------------------------------------------------------

struct Geometry {
  size_t width;
  size_t depth;
  uint64_t seed;
};

// Power-of-two widths take the mask path, the rest the magic multiply;
// 2^16 x 4 is the served cms_wide geometry.
const Geometry kGeometries[] = {
    {1, 1, 7},     {2, 3, 11},    {3, 1, 13},
    {7, 5, 17},    {64, 4, 19},   {1000, 2, 23},
    {4096, 6, 29}, {65536, 4, 37}};

TEST(CountMinDifferential, BatchEstimatesMatchPerKeyOnEveryTier) {
  TierGuard guard;
  Rng rng(606);
  for (const Geometry& g : kGeometries) {
    CountMinSketch sketch(g.width, g.depth, g.seed);
    const std::vector<uint64_t> trace =
        RandomKeys(2000, rng);
    sketch.UpdateBatch(Span<const uint64_t>(trace));
    for (const size_t n : kBatchSizes) {
      std::vector<uint64_t> keys = RandomKeys(n, rng);
      // Mix in keys that are actually present.
      for (size_t i = 0; i < n; i += 3) keys[i] = trace[i % trace.size()];
      std::vector<uint64_t> expected(n);
      for (size_t i = 0; i < n; ++i) expected[i] = sketch.Estimate(keys[i]);
      for (const KernelTier tier : TiersUnderTest()) {
        ASSERT_TRUE(ForceKernelTier(tier).ok());
        std::vector<uint64_t> got(n, 0);
        sketch.EstimateBatch(Span<const uint64_t>(keys),
                             Span<uint64_t>(got));
        ASSERT_EQ(got, expected)
            << "tier=" << KernelTierName(tier) << " width=" << g.width
            << " depth=" << g.depth << " n=" << n;
      }
    }
  }
}

TEST(CountMinDifferential, BatchUpdateTablesBitIdenticalOnEveryTier) {
  TierGuard guard;
  Rng rng(707);
  for (const Geometry& g : kGeometries) {
    // Reference: the untouched per-key Update path.
    CountMinSketch reference(g.width, g.depth, g.seed);
    const std::vector<uint64_t> trace = RandomKeys(3000, rng);
    for (const uint64_t key : trace) reference.Update(key);
    const std::vector<uint8_t> expected = CounterTableBytes(reference);
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      CountMinSketch batched = reference.EmptyClone();
      batched.UpdateBatch(Span<const uint64_t>(trace));
      ASSERT_EQ(CounterTableBytes(batched), expected)
          << "tier=" << KernelTierName(tier) << " width=" << g.width
          << " depth=" << g.depth;
    }
  }
}

TEST(CountSketchDifferential, BatchEstimatesMatchPerKeyOnEveryTier) {
  TierGuard guard;
  Rng rng(808);
  for (const Geometry& g : kGeometries) {
    CountSketch sketch(g.width, g.depth, g.seed);
    const std::vector<uint64_t> trace = RandomKeys(2000, rng);
    sketch.UpdateBatch(Span<const uint64_t>(trace));
    for (const size_t n : kBatchSizes) {
      std::vector<uint64_t> keys = RandomKeys(n, rng);
      for (size_t i = 0; i < n; i += 3) keys[i] = trace[i % trace.size()];
      std::vector<int64_t> expected(n);
      std::vector<uint64_t> expected_clamped(n);
      for (size_t i = 0; i < n; ++i) {
        expected[i] = sketch.Estimate(keys[i]);
        expected_clamped[i] = sketch.EstimateNonNegative(keys[i]);
      }
      for (const KernelTier tier : TiersUnderTest()) {
        ASSERT_TRUE(ForceKernelTier(tier).ok());
        std::vector<int64_t> got(n, -99);
        std::vector<uint64_t> got_clamped(n, 99);
        sketch.EstimateBatch(Span<const uint64_t>(keys),
                             Span<int64_t>(got));
        sketch.EstimateNonNegativeBatch(Span<const uint64_t>(keys),
                                        Span<uint64_t>(got_clamped));
        ASSERT_EQ(got, expected)
            << "tier=" << KernelTierName(tier) << " width=" << g.width
            << " depth=" << g.depth << " n=" << n;
        ASSERT_EQ(got_clamped, expected_clamped)
            << "tier=" << KernelTierName(tier) << " width=" << g.width;
      }
    }
  }
}

TEST(CountSketchDifferential, BatchUpdateTablesBitIdenticalOnEveryTier) {
  TierGuard guard;
  Rng rng(909);
  for (const Geometry& g : kGeometries) {
    CountSketch reference(g.width, g.depth, g.seed);
    const std::vector<uint64_t> trace = RandomKeys(3000, rng);
    for (const uint64_t key : trace) reference.Update(key);
    const std::vector<uint8_t> expected = CounterTableBytes(reference);
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      CountSketch batched = reference.EmptyClone();
      batched.UpdateBatch(Span<const uint64_t>(trace));
      ASSERT_EQ(CounterTableBytes(batched), expected)
          << "tier=" << KernelTierName(tier) << " width=" << g.width
          << " depth=" << g.depth;
    }
  }
}

TEST(LearnedCountMinDifferential, InheritsKernelsThroughRemainder) {
  TierGuard guard;
  Rng rng(1010);
  std::vector<uint64_t> heavy;
  for (uint64_t key = 0; key < 20; ++key) heavy.push_back(key * 1000);
  auto created = LearnedCountMinSketch::Create(400, 3, heavy, 31);
  ASSERT_TRUE(created.ok());
  LearnedCountMinSketch& sketch = created.value();
  std::vector<uint64_t> trace = RandomKeys(4000, rng);
  for (size_t i = 0; i < trace.size(); i += 4) {
    trace[i] = heavy[i % heavy.size()];
  }
  sketch.UpdateBatch(Span<const uint64_t>(trace));
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> keys = RandomKeys(n, rng);
    for (size_t i = 0; i < n; i += 2) keys[i] = trace[i % trace.size()];
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = sketch.Estimate(keys[i]);
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<uint64_t> got(n, 0);
      sketch.EstimateBatch(Span<const uint64_t>(keys),
                           Span<uint64_t>(got));
      ASSERT_EQ(got, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
}

TEST(MappedViewDifferential, MmapBatchMatchesSketchOnEveryTier) {
  TierGuard guard;
  Rng rng(1111);
  CountMinSketch sketch(777, 4, 41);
  const std::vector<uint64_t> trace = RandomKeys(3000, rng);
  sketch.UpdateBatch(Span<const uint64_t>(trace));
  const std::string path =
      ::testing::TempDir() + "/kernel_differential_cms.snapshot";
  ASSERT_TRUE(io::SaveSketchSnapshot(path, sketch).ok());
  auto view = io::testutil::OpenArtifactAs<io::MappedCountMinView>(
      path, /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (const size_t n : kBatchSizes) {
    std::vector<uint64_t> keys = RandomKeys(n, rng);
    for (size_t i = 0; i < n; i += 3) keys[i] = trace[i % trace.size()];
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = sketch.Estimate(keys[i]);
    for (const KernelTier tier : TiersUnderTest()) {
      ASSERT_TRUE(ForceKernelTier(tier).ok());
      std::vector<uint64_t> got(n, 0);
      view.value().EstimateBatch(Span<const uint64_t>(keys),
                                 Span<uint64_t>(got));
      ASSERT_EQ(got, expected) << "tier=" << KernelTierName(tier)
                               << " n=" << n;
    }
  }
  std::remove(path.c_str());
}

TEST(WindowedDifferential, RingQueriesMatchAcrossTiers) {
  TierGuard guard;
  Rng rng(1212);
  const std::vector<uint64_t> trace = RandomKeys(5000, rng);
  const std::vector<uint64_t> probes = RandomKeys(300, rng);

  // Reference ring built and queried on the scalar tier.
  ASSERT_TRUE(ForceKernelTier(KernelTier::kScalar).ok());
  auto reference = WindowedSketch<CountMinSketch>::Create(
      CountMinSketch(512, 4, 51), /*num_windows=*/4,
      /*window_items=*/1024);
  ASSERT_TRUE(reference.ok());
  reference.value().UpdateBatch(Span<const uint64_t>(trace));
  std::vector<double> expected(probes.size());
  reference.value().EstimateBatch(Span<const uint64_t>(probes),
                                  Span<double>(expected));

  for (const KernelTier tier : TiersUnderTest()) {
    ASSERT_TRUE(ForceKernelTier(tier).ok());
    auto ring = WindowedSketch<CountMinSketch>::Create(
        CountMinSketch(512, 4, 51), /*num_windows=*/4,
        /*window_items=*/1024);
    ASSERT_TRUE(ring.ok());
    ring.value().UpdateBatch(Span<const uint64_t>(trace));
    std::vector<double> got(probes.size(), -1.0);
    ring.value().EstimateBatch(Span<const uint64_t>(probes),
                               Span<double>(got));
    ASSERT_EQ(got, expected) << "tier=" << KernelTierName(tier);
  }
}

// Concurrent readers keep getting exact answers while the active tier is
// swapped under them — the documented benign-race contract of the
// dispatcher (every tier is bit-identical, the ops pointer swap is
// atomic). This is the suite's `threaded`-label justification; TSan runs
// it.
TEST(DispatchSwapDifferential, ReadersStayExactAcrossConcurrentTierSwaps) {
  TierGuard guard;
  Rng rng(1313);
  CountMinSketch sketch(2048, 4, 61);
  const std::vector<uint64_t> trace = RandomKeys(4000, rng);
  sketch.UpdateBatch(Span<const uint64_t>(trace));
  std::vector<uint64_t> probes = RandomKeys(256, rng);
  for (size_t i = 0; i < probes.size(); i += 2) {
    probes[i] = trace[i % trace.size()];
  }
  std::vector<uint64_t> expected(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    expected[i] = sketch.Estimate(probes[i]);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::vector<uint64_t> got(probes.size());
      while (!stop.load(std::memory_order_acquire)) {
        sketch.EstimateBatch(Span<const uint64_t>(probes),
                             Span<uint64_t>(got));
        if (got != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  const std::vector<KernelTier> tiers = TiersUnderTest();
  for (int swap = 0; swap < 200; ++swap) {
    ASSERT_TRUE(ForceKernelTier(tiers[swap % tiers.size()]).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace opthash::sketch
