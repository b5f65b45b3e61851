#ifndef OPTHASH_SKETCH_ESTIMATE_AS_DOUBLE_H_
#define OPTHASH_SKETCH_ESTIMATE_AS_DOUBLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/span.h"

namespace opthash::sketch {

/// out[i] = double(sketch.Estimate(keys[i])) through the sketch's typed
/// EstimateBatch, staged in fixed-size stack chunks (allocation-free).
/// The raw type is whatever Estimate returns, so Count-Sketch keeps its
/// signed median answers (int64_t) and every other counter is uint64_t.
/// Works for any type with that pair of queries, including the mapped
/// count-min view. keys.size() must equal out.size().
template <typename Sketch>
void EstimateBatchAsDouble(const Sketch& sketch, Span<const uint64_t> keys,
                           Span<double> out) {
  using Raw = decltype(sketch.Estimate(uint64_t{0}));
  constexpr size_t kChunk = 256;
  Raw raw[kChunk];
  for (size_t base = 0; base < keys.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, keys.size() - base);
    sketch.EstimateBatch(keys.subspan(base, chunk), Span<Raw>(raw, chunk));
    for (size_t i = 0; i < chunk; ++i) {
      out[base + i] = static_cast<double>(raw[i]);
    }
  }
}

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_ESTIMATE_AS_DOUBLE_H_
