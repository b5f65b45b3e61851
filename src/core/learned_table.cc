#include "core/learned_table.h"

#include <algorithm>

#include "common/check.h"
#include "sketch/kernels/kernels.h"

namespace opthash::core {

namespace {

// kN branch-free binary searches in lockstep. Every search over a column
// of `size` ids takes the same number of halving steps, so the lanes
// advance together and each step issues kN independent loads. `pos`
// ends at the last id <= key (or 0), which is the key's entry if stored.
// Its bucket is loaded either way and masked to -1 on a miss, so a mix of
// hits and misses costs no mispredicted branch.
template <size_t kN>
void SearchLanes(const uint64_t* ids, const int32_t* buckets, size_t size,
                 const uint64_t* keys, int32_t* out) {
  if (size == 0) {
    std::fill(out, out + kN, -1);
    return;
  }
  size_t pos[kN] = {};
  for (size_t len = size; len > 1;) {
    const size_t half = len / 2;
    for (size_t lane = 0; lane < kN; ++lane) {
      pos[lane] += static_cast<size_t>(ids[pos[lane] + half] <= keys[lane]) *
                   half;
    }
    len -= half;
  }
  for (size_t lane = 0; lane < kN; ++lane) {
    const int32_t hit = -static_cast<int32_t>(ids[pos[lane]] == keys[lane]);
    out[lane] = (buckets[pos[lane]] & hit) | ~hit;
  }
}

}  // namespace

int32_t LearnedTable::Find(uint64_t id) const {
  int32_t bucket = -1;
  SearchLanes<1>(ids_, buckets_, size_, &id, &bucket);
  return bucket;
}

void LearnedTable::FindBatch(Span<const uint64_t> ids,
                             Span<int32_t> out) const {
  OPTHASH_CHECK_EQ(ids.size(), out.size());
  size_t i = 0;
  for (; i + kLanes <= ids.size(); i += kLanes) {
    SearchLanes<kLanes>(ids_, buckets_, size_, ids.data() + i,
                        out.data() + i);
  }
  for (; i < ids.size(); ++i) out[i] = Find(ids[i]);
}

void BucketCounters::GatherAverages(Span<const int32_t> buckets,
                                    Span<double> out) const {
  OPTHASH_CHECK_EQ(buckets.size(), out.size());
  constexpr size_t kPrefetchDistance = 16;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i + kPrefetchDistance < out.size()) {
      const auto ahead = static_cast<uint32_t>(buckets[i + kPrefetchDistance]);
      if (ahead < size) {
        sketch::kernels::PrefetchRead(count + ahead);
        sketch::kernels::PrefetchRead(freq + ahead);
      }
    }
    out[i] = Average(buckets[i]);
  }
}

void EstimateStoredIds(const LearnedTable& table,
                       const BucketCounters& counters, int32_t miss_bucket,
                       Span<const uint64_t> ids, Span<double> out) {
  OPTHASH_CHECK_EQ(ids.size(), out.size());
  constexpr size_t kChunk = 256;
  int32_t buckets[kChunk];
  for (size_t base = 0; base < ids.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, ids.size() - base);
    table.FindBatch(ids.subspan(base, chunk), Span<int32_t>(buckets, chunk));
    for (size_t i = 0; i < chunk; ++i) {
      buckets[i] = buckets[i] < 0 ? miss_bucket : buckets[i];
    }
    counters.GatherAverages(Span<const int32_t>(buckets, chunk),
                            out.subspan(base, chunk));
  }
}

}  // namespace opthash::core
