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
#include "sketch/kernels/kernels.h"

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

/// Section types present in a snapshot file, in file order — lets callers
/// (the CLI `restore` verb) dispatch without knowing what was saved.
Result<std::vector<SectionType>> ListSnapshotSections(
    const std::string& path);

/// True when the section type has a zero-copy mapped serving view
/// (`restore --mmap`): sketch kinds with the table's mmap_view column
/// (count-min: MappedCountMinView) and model-bundle estimator sections
/// (MappedEstimatorView). Every other sketch kind must be deserialized
/// fully — callers that were asked for
/// mmap should say so explicitly and report the mode they actually used
/// instead of silently downgrading.
bool MmapServingSupported(SectionType type);

/// \brief Zero-copy point-query view over a count-min snapshot.
///
/// Open mmaps the file, validates header + section table (payload CRC only
/// when `verify_crc` — checking it would fault in every counter page,
/// which is exactly what a hot restart wants to avoid), redraws the level
/// hashes from the stored seed, and then answers Estimate straight from
/// the mapped counter array: no allocation proportional to the sketch and
/// no memcpy of counters. Pages fault in lazily as queries touch them.
///
/// The view owns its mapping (move-only); estimates are byte-identical to
/// a fully deserialized CountMinSketch. Use this for read-mostly serving;
/// to keep ingesting, load a mutable sketch with LoadSketchSnapshot.
class MappedCountMinView {
 public:
  static Result<MappedCountMinView> Open(const std::string& path,
                                         bool verify_crc = false);

  /// Point query: min over levels, identical to CountMinSketch::Estimate
  /// on the snapshotted state.
  uint64_t Estimate(uint64_t key) const;

  /// Batched point queries: out[i] = Estimate(keys[i]), allocation-free.
  /// Level-major over the mapped counter rows, mirroring
  /// CountMinSketch::EstimateBatch (and touching each mapped page run
  /// once per block). keys.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> keys, Span<uint64_t> out) const;

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  uint64_t total_count() const { return total_count_; }
  bool conservative_update() const { return conservative_update_; }

 private:
  MappedCountMinView() = default;

  MappedSnapshot snapshot_;
  const uint8_t* counters_ = nullptr;  // Into the mapping; 8-aligned.
  size_t width_ = 0;
  size_t depth_ = 0;
  uint64_t seed_ = 0;
  uint64_t total_count_ = 0;
  bool conservative_update_ = false;
  std::vector<hashing::LinearHash> hashes_;
  // Kernel constants mirroring hashes_, so batched queries over the
  // mapped rows run through the dispatched SIMD tiers (the payload's
  // 8-byte alignment satisfies the kernel contract).
  std::vector<sketch::kernels::HashKernelParams> kernel_params_;
};

}  // namespace opthash::io

#endif  // OPTHASH_IO_SKETCH_SNAPSHOT_H_
