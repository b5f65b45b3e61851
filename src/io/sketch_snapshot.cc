#include "io/sketch_snapshot.h"

namespace opthash::io {

Result<MappedCountMinView> MappedCountMinView::FromMapping(
    MappedSnapshot snapshot, const std::string& path) {
  const SnapshotSection* section =
      snapshot.view().Find(SectionType::kCountMinSketch);
  if (section == nullptr) {
    return Status::InvalidArgument(path + " holds no count-min section");
  }
  // Header fields per docs/FORMATS.md §3.1.
  ByteReader in(section->payload);
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != 1) {
    return Status::InvalidArgument("unsupported count-min payload version " +
                                   std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(flags, in.ReadU32());
  if ((flags & ~1u) != 0) {
    // Mirror CountMinSketch::Deserialize: a future flag bit may change
    // counter semantics, and serving under the old ones would silently
    // return wrong counts.
    return Status::InvalidArgument("unknown count-min payload flags");
  }
  OPTHASH_IO_ASSIGN(width, in.ReadU64());
  OPTHASH_IO_ASSIGN(depth, in.ReadU64());
  OPTHASH_IO_ASSIGN(seed, in.ReadU64());
  OPTHASH_IO_ASSIGN(total_count, in.ReadU64());
  const size_t counter_count = in.remaining() / sizeof(uint64_t);
  if (width == 0 || depth == 0 || in.remaining() % sizeof(uint64_t) != 0 ||
      width > counter_count / depth || width * depth != counter_count) {
    return Status::InvalidArgument(
        "count-min geometry disagrees with payload size");
  }
  MappedCountMinView view;
  view.total_count_ = total_count;
  if (HostIsLittleEndian()) {
    // Section payloads are 8-aligned in the mapping (docs/FORMATS.md).
    view.counters_ = reinterpret_cast<const uint64_t*>(
        section->payload.data() + in.offset());
  } else {
    OPTHASH_IO_RETURN_IF_ERROR(in.ReadU64Array(view.decoded_, counter_count));
    view.counters_ = view.decoded_.data();
  }
  // The only other materialized state: d LinearHash draws (a few hundred
  // bytes), redrawn exactly as the CountMinSketch constructor draws them.
  view.levels_ = sketch::CountMinLevels(static_cast<size_t>(width),
                                        static_cast<size_t>(depth),
                                        seed);
  view.snapshot_ = std::move(snapshot);
  return view;
}

}  // namespace opthash::io
