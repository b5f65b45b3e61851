#include "io/sketch_snapshot.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/random.h"
#include "sketch/kernels/simd_dispatch.h"

namespace opthash::io {

Result<std::vector<SectionType>> ListSnapshotSections(
    const std::string& path) {
  // Header/table-only probe: dispatching on the result must not cost a
  // full-file read before the real load does its own verified pass.
  return PeekSectionTypes(path);
}

bool MmapServingSupported(SectionType type) {
  if (type == SectionType::kOptHashEstimator) return true;
  return VisitSketchKind(type, [](auto kind) {
           return decltype(kind)::kInfo.mmap_view;
         }).value_or(false);
}

namespace {

// Byte offsets inside the count-min payload (docs/FORMATS.md §3.1).
constexpr size_t kCmsHeaderBytes = 40;
constexpr size_t kCmsFlagsOffset = 4;
constexpr size_t kCmsWidthOffset = 8;
constexpr size_t kCmsDepthOffset = 16;
constexpr size_t kCmsSeedOffset = 24;
constexpr size_t kCmsTotalOffset = 32;

}  // namespace

Result<MappedCountMinView> MappedCountMinView::Open(const std::string& path,
                                                    bool verify_crc) {
  auto snapshot = MappedSnapshot::Open(path, verify_crc);
  if (!snapshot.ok()) return snapshot.status();
  const SnapshotSection* section =
      snapshot.value().view().Find(SectionType::kCountMinSketch);
  if (section == nullptr) {
    return Status::InvalidArgument(path + " holds no count-min section");
  }
  const Span<const uint8_t> payload = section->payload;
  if (payload.size() < kCmsHeaderBytes) {
    return Status::InvalidArgument("count-min payload shorter than header");
  }
  const uint32_t version = LoadLittleU32(payload.data());
  if (version != 1) {
    return Status::InvalidArgument("unsupported count-min payload version " +
                                   std::to_string(version));
  }

  MappedCountMinView view;
  const uint32_t flags = LoadLittleU32(payload.data() + kCmsFlagsOffset);
  if ((flags & ~1u) != 0) {
    // Mirror CountMinSketch::Deserialize: a future flag bit may change
    // counter semantics, and serving under the old ones would silently
    // return wrong counts.
    return Status::InvalidArgument("unknown count-min payload flags");
  }
  view.conservative_update_ = (flags & 1u) != 0;
  const uint64_t width = LoadLittleU64(payload.data() + kCmsWidthOffset);
  const uint64_t depth = LoadLittleU64(payload.data() + kCmsDepthOffset);
  view.seed_ = LoadLittleU64(payload.data() + kCmsSeedOffset);
  view.total_count_ = LoadLittleU64(payload.data() + kCmsTotalOffset);
  const size_t counter_bytes = payload.size() - kCmsHeaderBytes;
  const size_t counter_count = counter_bytes / sizeof(uint64_t);
  if (width == 0 || depth == 0 || counter_bytes % sizeof(uint64_t) != 0 ||
      width > counter_count / depth || width * depth != counter_count) {
    return Status::InvalidArgument(
        "count-min geometry disagrees with payload size");
  }
  view.width_ = static_cast<size_t>(width);
  view.depth_ = static_cast<size_t>(depth);
  view.counters_ = payload.data() + kCmsHeaderBytes;

  // The only materialized state: d LinearHash draws (a few hundred bytes),
  // redrawn exactly as the CountMinSketch constructor draws them.
  Rng rng(view.seed_);
  view.hashes_.reserve(view.depth_);
  view.kernel_params_.reserve(view.depth_);
  for (size_t level = 0; level < view.depth_; ++level) {
    view.hashes_.emplace_back(view.width_, rng);
    view.kernel_params_.push_back(
        sketch::kernels::HashKernelParams::From(view.hashes_.back()));
  }
  view.snapshot_ = std::move(snapshot).value();
  return view;
}

uint64_t MappedCountMinView::Estimate(uint64_t key) const {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (size_t level = 0; level < depth_; ++level) {
    const size_t index = level * width_ + hashes_[level](key);
    best = std::min(best, LoadLittleU64(counters_ + index * sizeof(uint64_t)));
  }
  return best;
}

void MappedCountMinView::EstimateBatch(Span<const uint64_t> keys,
                                       Span<uint64_t> out) const {
  OPTHASH_CHECK_EQ(keys.size(), out.size());
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // Little-endian hosts read the mapped counters natively, so the block
  // path runs through the dispatched kernel tier exactly like
  // CountMinSketch::EstimateBatch — same level-major row walk, same
  // bit-identical results (the snapshot payload is 8-aligned by format).
  if (reinterpret_cast<uintptr_t>(counters_) % alignof(uint64_t) == 0) {
    const auto* counters = reinterpret_cast<const uint64_t*>(counters_);
    const sketch::kernels::KernelOps& ops =
        sketch::kernels::ActiveKernels();
    constexpr size_t kKernelChunk = 256;
    uint64_t idx[kKernelChunk];
    for (size_t begin = 0; begin < keys.size(); begin += kKernelChunk) {
      const size_t block = std::min(kKernelChunk, keys.size() - begin);
      uint64_t* out_block = out.data() + begin;
      for (size_t i = 0; i < block; ++i) {
        out_block[i] = std::numeric_limits<uint64_t>::max();
      }
      for (size_t level = 0; level < depth_; ++level) {
        ops.hash_buckets(kernel_params_[level], keys.data() + begin,
                         block, idx);
        ops.min_gather_u64(counters + level * width_, idx, block,
                           out_block);
      }
    }
    return;
  }
#endif
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::numeric_limits<uint64_t>::max();
  }
  // Level-major over the mapped rows: the block touches each row's pages
  // in one run instead of hopping across levels per key.
  for (size_t level = 0; level < depth_; ++level) {
    const uint8_t* row = counters_ + level * width_ * sizeof(uint64_t);
    const hashing::LinearHash& hash = hashes_[level];
    for (size_t i = 0; i < keys.size(); ++i) {
      const size_t offset = hash(keys[i]) * sizeof(uint64_t);
      out[i] = std::min(out[i], LoadLittleU64(row + offset));
    }
  }
}

}  // namespace opthash::io
