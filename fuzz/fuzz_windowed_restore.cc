// Fuzz harness for the windowed-section restore path: the bytes are one
// kWindowedSketch section payload from an untrusted checkpoint. The
// inner-type probe and the full ring deserialization must reject hostile
// shapes (lying window counts, truncated inner payloads, absurd W) with
// a Status, and any ring they ACCEPT must answer queries and advance
// without faulting — restore-then-use is the operator's code path after
// a crash, and "loads fine, dies on first query" is the regression this
// harness hunts.

#include <cstddef>
#include <cstdint>

#include "common/span.h"
#include "io/bytes.h"
#include "io/sketch_kinds.h"
#include "io/windowed_snapshot.h"

namespace {

template <typename Sketch>
void RestoreAndExercise(opthash::Span<const uint8_t> payload) {
  opthash::io::ByteReader reader(payload);
  auto ring = opthash::io::DeserializeWindowedSketch<Sketch>(reader);
  if (!ring.ok()) return;  // Clean rejection is the common, fine case.
  // Accepted ring: the restore contract says it is usable — query it,
  // feed it, advance it across a window boundary.
  auto& windowed = ring.value();
  (void)windowed.Estimate(1);
  (void)windowed.total_items();
  for (uint64_t key = 0; key < 32; ++key) windowed.Update(key);
  (void)windowed.Estimate(1);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const opthash::Span<const uint8_t> payload(data, size);

  auto inner = opthash::io::PeekWindowedInnerType(payload);
  if (inner.ok()) (void)opthash::io::SectionTypeName(*inner);

  // Every windowable row of the sketch-kind table: the restore path's
  // kind — and also deliberately WRONG ones, the cross-kind load an
  // operator can trigger with a mislabelled file; each deserializer owns
  // rejecting foreign inner types.
  opthash::io::ForEachSketchKind([&](auto kind) {
    using Kind = decltype(kind);
    if constexpr (Kind::kInfo.windowable) {
      RestoreAndExercise<typename Kind::Sketch>(payload);
    }
  });
  return 0;
}
