// Fuzz harness for the snapshot container parser — the bytes are a
// whole on-disk snapshot file as an operator (or an attacker who can
// write to the snapshot directory) could present it. Parse must reject
// corruption with a Status; what it accepts must be fully walkable:
// every section's type, payload span and CRC verification must work
// without faulting. An estimator section is also decoded, and a table the
// decoder adopts must answer every stored id through Find and FindBatch
// alike.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "core/opt_hash_estimator.h"
#include "io/bytes.h"
#include "io/snapshot.h"

namespace {

void CheckEstimatorSection(opthash::Span<const uint8_t> payload) {
  opthash::io::ByteReader in(payload);
  auto estimator = opthash::core::OptHashEstimator::DeserializeBinary(in);
  if (!estimator.ok()) return;
  const opthash::core::LearnedTable table = estimator.value().table();
  std::vector<int32_t> found(table.size());
  table.FindBatch(table.ids(), found);
  size_t i = 0;
  for (const auto [id, bucket] : table) {
    if (found[i++] != bucket || table.Find(id) != bucket) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace opthash::io;  // NOLINT one TU, fuzz entry only
  const opthash::Span<const uint8_t> bytes(data, size);

  // Strict parse: payload CRCs verified up front.
  auto strict = SnapshotView::Parse(bytes, /*verify_payload_crcs=*/true);
  // Lazy parse (the mmap path) + explicit verification afterwards: the
  // two-phase walk must be as crash-free as the one-phase one.
  auto lazy = SnapshotView::Parse(bytes, /*verify_payload_crcs=*/false);
  if (lazy.ok()) {
    const SnapshotView& view = lazy.value();
    for (const SnapshotSection& section : view.sections()) {
      (void)SectionTypeName(section.type);
      // Touch every payload byte: an out-of-buffer span is the bug
      // class this harness exists for (ASan turns it into a crash).
      uint64_t checksum = 0;
      for (const uint8_t byte : section.payload) checksum += byte;
      (void)checksum;
      if (section.type == SectionType::kOptHashEstimator) {
        CheckEstimatorSection(section.payload);
      }
    }
    (void)view.Find(SectionType::kCountMinSketch);
    (void)view.Find(SectionType::kWindowedSketch);
    const opthash::Status verify = view.VerifyPayloadCrcs();
    // Strict parse and lazy-then-verify must agree on acceptance.
    if (strict.ok() != verify.ok()) __builtin_trap();
  } else if (strict.ok()) {
    // Accepting strictly but rejecting lazily is parser inconsistency.
    __builtin_trap();
  }
  return 0;
}
