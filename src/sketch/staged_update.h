#ifndef OPTHASH_SKETCH_STAGED_UPDATE_H_
#define OPTHASH_SKETCH_STAGED_UPDATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/span.h"

namespace opthash::sketch {

/// Words of bucket indices a StagedUpdateBatch keeps in its own frame
/// (128 KB): a 4,096-key block of a depth-4 count-min stages whole.
inline constexpr size_t kStagedUpdateWords = 16384;

/// True for the linear sketches whose update splits into a const hash
/// phase and a counter phase (`HashedWordsPerKey`, `HashBatch`,
/// `AddHashed`): CountMinSketch and CountSketch.
template <typename Sketch, typename = void>
struct HasHashPhase : std::false_type {};
template <typename Sketch>
struct HasHashPhase<Sketch,
                    std::void_t<decltype(std::declval<const Sketch&>()
                                             .HashedWordsPerKey())>>
    : std::true_type {};

/// `sketch.UpdateBatch(keys)` with `writer` held exclusively only while
/// counters change. The hash phase of the block's first
/// kStagedUpdateWords / HashedWordsPerKey() keys runs before the lock is
/// taken; under it the staged indices are scatter-added and any tail
/// (or a sketch with nothing to stage) goes through UpdateBatch. So every
/// counter of the block changes under one hold of the lock, and a reader
/// holding it shared sees all of the block or none of it. The counters
/// end bit-identical to UpdateBatch's.
template <typename Sketch, typename Mutex>
void StagedUpdateBatch(Sketch& sketch, Span<const uint64_t> keys,
                       Mutex& writer) {
  uint64_t staged[kStagedUpdateWords];
  const size_t words = sketch.HashedWordsPerKey();
  const size_t head =
      words == 0 ? 0 : std::min(keys.size(), kStagedUpdateWords / words);
  sketch.HashBatch(keys.subspan(0, head), staged);
  std::lock_guard<Mutex> lock(writer);
  sketch.AddHashed(staged, head);
  sketch.UpdateBatch(keys.subspan(head, keys.size()));
}

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_STAGED_UPDATE_H_
