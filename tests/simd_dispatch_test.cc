// The dispatch shim itself: tier naming, availability, forced selection
// (by enum and by OPTHASH_SIMD-style name), readable errors for
// unavailable or unknown tiers, and the environment-override status that
// serving tools check at startup. The project linter requires every
// KernelTier enumerator to appear here by name, so a new tier cannot
// ship without dispatch coverage.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "sketch/kernels/simd_dispatch.h"

namespace opthash::sketch::kernels {
namespace {

struct TierGuard {
  ~TierGuard() { ResetKernelTierForTest(); }
};

TEST(SimdDispatchTest, TierNamesAreTheOverrideVocabulary) {
  EXPECT_EQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_EQ(KernelTierName(KernelTier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ScalarIsAlwaysAvailableAndListedLast) {
  EXPECT_TRUE(KernelTierAvailable(KernelTier::kScalar));
  const auto tiers = AvailableKernelTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), KernelTier::kScalar);
  // The default pick is the head of the availability order.
  EXPECT_EQ(BestAvailableKernelTier(), tiers.front());
}

TEST(SimdDispatchTest, ForceSelectsEveryAvailableTier) {
  TierGuard guard;
  for (const KernelTier tier : AvailableKernelTiers()) {
    ASSERT_TRUE(ForceKernelTier(tier).ok());
    EXPECT_EQ(ActiveKernelTier(), tier);
    // The ops set follows the tier atomically.
    EXPECT_NE(ActiveKernels().hash_buckets, nullptr);
  }
}

TEST(SimdDispatchTest, ForceByNameMatchesForceByTier) {
  TierGuard guard;
  for (const KernelTier tier : AvailableKernelTiers()) {
    ASSERT_TRUE(
        ForceKernelTierByName(std::string(KernelTierName(tier))).ok());
    EXPECT_EQ(ActiveKernelTier(), tier);
  }
}

TEST(SimdDispatchTest, UnknownTierNameFailsReadably) {
  TierGuard guard;
  const KernelTier before = ActiveKernelTier();
  const Status status = ForceKernelTierByName("sse9");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sse9"), std::string::npos);
  EXPECT_NE(status.message().find("scalar"), std::string::npos);
  // Selection unchanged on failure.
  EXPECT_EQ(ActiveKernelTier(), before);
}

TEST(SimdDispatchTest, UnavailableTierFailsWithAvailableList) {
  TierGuard guard;
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    if (KernelTierAvailable(tier)) continue;
    const KernelTier before = ActiveKernelTier();
    const Status status = ForceKernelTier(tier);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(
        status.message().find(std::string(KernelTierName(tier))),
        std::string::npos);
    EXPECT_NE(status.message().find("available"), std::string::npos);
    EXPECT_EQ(ActiveKernelTier(), before);
  }
}

// A tier value past the enumerators is never available, so this runs the
// unavailable-tier error path on every host, AVX2 ones included.
TEST(SimdDispatchTest, OutOfRangeTierFailsWithAvailableList) {
  TierGuard guard;
  const KernelTier before = ActiveKernelTier();
  const Status status = ForceKernelTier(static_cast<KernelTier>(2));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("available"), std::string::npos);
  for (const KernelTier tier : AvailableKernelTiers()) {
    EXPECT_NE(status.message().find(std::string(KernelTierName(tier))),
              std::string::npos)
        << status.message();
  }
  EXPECT_EQ(ActiveKernelTier(), before);
}

TEST(SimdDispatchTest, EnvOverrideIsHonoredWhenSet) {
  // Under a pinned run (the scalar-forced CI leg exports OPTHASH_SIMD
  // before any test runs) the initial selection must match the pin and
  // the env status must be OK. Without the variable the default pick is
  // the best available tier.
  TierGuard guard;
  ResetKernelTierForTest();
  const char* env = std::getenv("OPTHASH_SIMD");
  if (env != nullptr && env[0] != '\0') {
    EXPECT_TRUE(KernelEnvStatus().ok())
        << "test harness exported an invalid OPTHASH_SIMD";
    EXPECT_EQ(KernelTierName(ActiveKernelTier()), env);
  } else {
    EXPECT_TRUE(KernelEnvStatus().ok());
    EXPECT_EQ(ActiveKernelTier(), BestAvailableKernelTier());
  }
}

TEST(SimdDispatchTest, InvalidEnvValueSurfacesThroughEnvStatus) {
  // setenv + re-init in-process: the stored status must describe the bad
  // value while the selection falls back to the best available tier, so
  // library users keep working and tools can fail loudly.
  TierGuard guard;
  const char* old = std::getenv("OPTHASH_SIMD");
  const std::string saved = old != nullptr ? old : "";
  ASSERT_EQ(setenv("OPTHASH_SIMD", "avx512-typo", 1), 0);
  ResetKernelTierForTest();
  const Status status = KernelEnvStatus();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("avx512-typo"), std::string::npos);
  EXPECT_EQ(ActiveKernelTier(), BestAvailableKernelTier());
  if (saved.empty()) {
    unsetenv("OPTHASH_SIMD");
  } else {
    setenv("OPTHASH_SIMD", saved.c_str(), 1);
  }
  ResetKernelTierForTest();
}

}  // namespace
}  // namespace opthash::sketch::kernels
