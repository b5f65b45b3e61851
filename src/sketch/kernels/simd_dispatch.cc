#include "sketch/kernels/simd_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/status.h"

namespace opthash::sketch::kernels {
namespace {

const KernelOps* OpsForTier(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return &ScalarKernels();
    case KernelTier::kAvx2:
      return Avx2KernelsOrNull();
  }
  return nullptr;
}

std::string AvailableTierNames() {
  std::string names;
  for (KernelTier tier : AvailableKernelTiers()) {
    if (!names.empty()) names += ", ";
    names += KernelTierName(tier);
  }
  return names;
}

// The process-global selection. `ops` and `tier` are written together
// under no lock — readers may briefly see a mixed pair during a forced
// swap, but every (ops, tier) value each is individually valid and
// bit-identical in output, so the race is benign by the kernel
// contract. The initial selection happens once, in the constructor of
// the function-local static (thread-safe by the standard).
struct DispatchState {
  std::atomic<const KernelOps*> ops;
  std::atomic<KernelTier> tier;
  Status env_status = Status::OK();

  DispatchState() { SelectDefault(); }

  // Best available tier, then the OPTHASH_SIMD override if present.
  void SelectDefault() {
    KernelTier selected = BestAvailableKernelTier();
    Status status = Status::OK();
    if (const char* env = std::getenv("OPTHASH_SIMD");
        env != nullptr && env[0] != '\0') {
      status = ParseTierName(env, &selected);
      if (!status.ok()) selected = BestAvailableKernelTier();
    }
    env_status = std::move(status);
    ops.store(OpsForTier(selected), std::memory_order_release);
    tier.store(selected, std::memory_order_release);
  }

  static Status ParseTierName(std::string_view name, KernelTier* out) {
    KernelTier parsed;
    if (name == "scalar") {
      parsed = KernelTier::kScalar;
    } else if (name == "avx2") {
      parsed = KernelTier::kAvx2;
    } else {
      return Status::InvalidArgument(
          "unknown SIMD tier '" + std::string(name) +
          "' (valid: scalar, avx2)");
    }
    if (!KernelTierAvailable(parsed)) {
      return Status::InvalidArgument(
          "SIMD tier '" + std::string(name) +
          "' is not available on this host (available: " +
          AvailableTierNames() + ")");
    }
    *out = parsed;
    return Status::OK();
  }
};

DispatchState& State() {
  static DispatchState state;
  return state;
}

}  // namespace

std::string_view KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelTierAvailable(KernelTier tier) {
  return OpsForTier(tier) != nullptr;
}

std::vector<KernelTier> AvailableKernelTiers() {
  std::vector<KernelTier> tiers;
  for (KernelTier tier : {KernelTier::kAvx2, KernelTier::kScalar}) {
    if (KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

KernelTier BestAvailableKernelTier() {
  if (KernelTierAvailable(KernelTier::kAvx2)) return KernelTier::kAvx2;
  return KernelTier::kScalar;
}

KernelTier ActiveKernelTier() {
  return State().tier.load(std::memory_order_acquire);
}

const KernelOps& ActiveKernels() {
  return *State().ops.load(std::memory_order_acquire);
}

Status ForceKernelTier(KernelTier tier) {
  const KernelOps* ops = OpsForTier(tier);
  if (ops == nullptr) {
    return Status::InvalidArgument(
        "SIMD tier '" + std::string(KernelTierName(tier)) +
        "' is not available on this host (available: " +
        AvailableTierNames() + ")");
  }
  DispatchState& state = State();
  state.ops.store(ops, std::memory_order_release);
  state.tier.store(tier, std::memory_order_release);
  return Status::OK();
}

Status ForceKernelTierByName(std::string_view name) {
  KernelTier tier;
  Status status = DispatchState::ParseTierName(name, &tier);
  if (!status.ok()) return status;
  return ForceKernelTier(tier);
}

Status KernelEnvStatus() { return State().env_status; }

void ResetKernelTierForTest() { State().SelectDefault(); }

}  // namespace opthash::sketch::kernels
