#ifndef OPTHASH_SKETCH_KERNELS_SIMD_DISPATCH_H_
#define OPTHASH_SKETCH_KERNELS_SIMD_DISPATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "sketch/kernels/kernels.h"

/// \file
/// \brief Runtime selection of the sketch kernel tier.
///
/// On first use the dispatcher picks the best tier the running CPU
/// supports (AVX2 on capable x86-64, scalar otherwise) and honors an
/// `OPTHASH_SIMD=scalar|avx2` environment override.
/// Tools expose the same override as a `--simd` flag via
/// ForceKernelTierByName. The selection is process-global and
/// atomically swappable, so tests and benchmarks can pin a tier, run,
/// and restore — every sketch batch path reads ActiveKernels() at call
/// time and follows along.
namespace opthash::sketch::kernels {

enum class KernelTier {
  kScalar = 0,
  kAvx2 = 1,
};

/// Lowercase tier name as accepted by OPTHASH_SIMD ("scalar", "avx2").
std::string_view KernelTierName(KernelTier tier);

/// Whether `tier` can run on this build and CPU.
bool KernelTierAvailable(KernelTier tier);

/// Every tier that can run here, best first.
std::vector<KernelTier> AvailableKernelTiers();

/// The tier the dispatcher would pick with no override.
KernelTier BestAvailableKernelTier();

/// The currently selected tier.
KernelTier ActiveKernelTier();

/// The currently selected implementation set.
const KernelOps& ActiveKernels();

/// Pins the active tier. Fails with a readable InvalidArgument when the
/// tier cannot run on this host; the selection is unchanged on failure.
Status ForceKernelTier(KernelTier tier);

/// ForceKernelTier by OPTHASH_SIMD-style name; rejects unknown names
/// with the list of valid ones.
Status ForceKernelTierByName(std::string_view name);

/// The result of applying the OPTHASH_SIMD environment variable at
/// first use: OK when unset or honored, an error describing the bad
/// value otherwise. Serving tools check this at startup so a typo'd
/// override fails loudly instead of silently running the default tier.
Status KernelEnvStatus();

/// Re-runs default selection (environment override included), undoing
/// any ForceKernelTier. For tests and benchmarks.
void ResetKernelTierForTest();

}  // namespace opthash::sketch::kernels

#endif  // OPTHASH_SKETCH_KERNELS_SIMD_DISPATCH_H_
