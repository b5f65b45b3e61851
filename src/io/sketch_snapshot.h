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
/// write, resume later with LoadSketchSnapshot and keep ingesting.
/// Works for every kind in the sketch-kind table (io/sketch_kinds.h).
template <typename Sketch>
Status SaveSketchSnapshot(const std::string& path, const Sketch& sketch) {
  ByteWriter payload;
  sketch.Serialize(payload);
  SnapshotWriter writer;
  writer.AddSection(kSketchKindOf<Sketch>.section, payload.TakeBytes());
  return writer.WriteToFile(path);
}

/// Restores a sketch checkpointed by SaveSketchSnapshot. Full CRC
/// verification; fails with a clean Status on a missing/mismatched
/// section, corruption, or trailing bytes.
template <typename Sketch>
Result<Sketch> LoadSketchSnapshot(const std::string& path) {
  auto reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();
  const SnapshotSection* section =
      reader.value().view().Find(kSketchKindOf<Sketch>.section);
  if (section == nullptr) {
    return Status::InvalidArgument(
        path + " holds no " +
        SectionTypeName(kSketchKindOf<Sketch>.section) + " section");
  }
  ByteReader in(section->payload);
  auto sketch = Sketch::Deserialize(in);
  if (!sketch.ok()) return sketch.status();
  OPTHASH_IO_RETURN_IF_ERROR(in.ExpectFullyConsumed());
  return sketch;
}

/// \brief Zero-copy point-query view over a count-min snapshot.
///
/// Open mmaps the file, validates header + section table (payload CRC only
/// when `verify_crc` — checking it would fault in every counter page,
/// which is exactly what a hot restart wants to avoid), redraws the level
/// hashes from the stored seed, and then answers through CountMinSketch's
/// own walk straight from the mapped counters (a big-endian host decodes
/// them once): no allocation proportional to the sketch and no memcpy of
/// counters. Pages fault in lazily as queries touch them.
///
/// The view owns its mapping (move-only); estimates are byte-identical to
/// a fully deserialized CountMinSketch. Use this for read-mostly serving;
/// to keep ingesting, load a mutable sketch with LoadSketchSnapshot.
class MappedCountMinView {
 public:
  static Result<MappedCountMinView> Open(const std::string& path,
                                         bool verify_crc = false);
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
