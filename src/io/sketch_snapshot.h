#ifndef OPTHASH_IO_SKETCH_SNAPSHOT_H_
#define OPTHASH_IO_SKETCH_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "hashing/hash_functions.h"
#include "io/bytes.h"
#include "io/sketch_kinds.h"
#include "io/snapshot.h"
#include "sketch/count_min_sketch.h"

namespace opthash::io {

/// Checkpoints one sketch as a single-section snapshot container — the
/// mid-stream durability primitive: serialize, fsync-free atomic-enough
/// write, resume later through io::VisitArtifact (io/artifact.h) and keep
/// ingesting.
/// Works for every kind in the sketch-kind table (io/sketch_kinds.h).
template <typename Sketch>
Status SaveSketchSnapshot(const std::string& path, const Sketch& sketch) {
  ByteWriter payload;
  sketch.Serialize(payload);
  SnapshotWriter writer;
  writer.AddSection(kSketchKindOf<Sketch>.section, payload.TakeBytes());
  return writer.WriteToFile(path);
}

/// \brief Zero-copy point-query view over a count-min snapshot.
///
/// FromMapping takes a mapped snapshot (header + section table validated,
/// payload CRC unchecked — checking it would fault in every counter page,
/// which is exactly what a hot restart wants to avoid), redraws the level
/// hashes from the stored seed, and then answers through CountMinSketch's
/// own walk straight from the mapped counters (a big-endian host decodes
/// them once): no allocation proportional to the sketch and no memcpy of
/// counters. Pages fault in lazily as queries touch them.
///
/// The view owns its mapping (move-only); estimates are byte-identical to
/// a fully deserialized CountMinSketch. Use this for read-mostly serving;
/// to keep ingesting, open the checkpoint without mmap through
/// io::VisitArtifact, which hands over a mutable CountMinSketch.
class MappedCountMinView {
 public:
  /// The view over a count-min checkpoint already mapped; `path` names it
  /// in errors.
  static Result<MappedCountMinView> FromMapping(MappedSnapshot snapshot,
                                                const std::string& path);

  /// Point query: min over levels, identical to CountMinSketch::Estimate
  /// on the snapshotted state.
  uint64_t Estimate(uint64_t key) const {
    return levels_.Estimate(counters_, key);
  }

  /// Batched point queries: out[i] = Estimate(keys[i]), allocation-free.
  /// keys.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> keys, Span<uint64_t> out) const {
    levels_.EstimateBatch(counters_, keys, out);
  }

  size_t width() const { return levels_.width(); }
  size_t depth() const { return levels_.depth(); }
  uint64_t total_count() const { return total_count_; }

 private:
  MappedCountMinView() = default;

  MappedSnapshot snapshot_;
  // Big-endian hosts only: the counters decoded to host order.
  std::vector<uint64_t> decoded_;
  // Into the mapping (8-aligned, as the batch walk needs) or decoded_.
  const uint64_t* counters_ = nullptr;
  uint64_t total_count_ = 0;
  sketch::CountMinLevels levels_;
};

}  // namespace opthash::io

#endif  // OPTHASH_IO_SKETCH_SNAPSHOT_H_
