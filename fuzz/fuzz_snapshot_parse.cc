// Fuzz harness for the snapshot container parser — the bytes are a
// whole on-disk snapshot file as an operator (or an attacker who can
// write to the snapshot directory) could present it. Parse must reject
// corruption with a Status; what it accepts must be fully walkable:
// every section's type, payload span and VerifyPayloadCrcs() must work
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

  // One parse (header, section table, bounds), then the payload CRCs:
  // every section Parse accepts must be walkable before it is verified.
  auto parsed = SnapshotView::Parse(bytes);
  if (!parsed.ok()) return 0;
  const SnapshotView& view = parsed.value();
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
  (void)view.VerifyPayloadCrcs();  // Either answer; it must not fault.
  return 0;
}
