#ifndef OPTHASH_IO_WINDOWED_SNAPSHOT_H_
#define OPTHASH_IO_WINDOWED_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/bytes.h"
#include "io/sketch_snapshot.h"
#include "io/snapshot.h"
#include "sketch/windowed_sketch.h"

namespace opthash::io {

/// Byte layout of the kWindowedSketch section payload (docs/FORMATS.md):
///   u8  payload version (currently 1)
///   u32 inner section type (the sub-sketch kind: kSketchKindOf<S>.section)
///   u32 number of windows W
///   u32 head slot index
///   u64 window_items (0 = tick-only advance)
///   u64 window_sequence
///   f64 decay
///   W x { u64 arrival count, u64 payload length, inner Serialize bytes }
/// Slots are stored in storage order so restore resumes mid-window with
/// the ring position intact.
inline constexpr uint8_t kWindowedSketchPayloadVersion = 1;

/// Sanity cap on W when reading untrusted files: generous for any real
/// deployment, small enough that a hostile count cannot balloon memory.
inline constexpr uint32_t kMaxWindowsInSnapshot = 1u << 20;

/// The sub-sketch kind stored inside a kWindowedSketch payload — the
/// restore-time dispatch probe (cheap: reads the fixed prefix only).
Result<SectionType> PeekWindowedInnerType(Span<const uint8_t> payload);

/// PeekWindowedInnerType for a snapshot file on disk; fails with a
/// readable Status when the file has no windowed-sketch section.
Result<SectionType> WindowedInnerTypeOfFile(const std::string& path);

template <typename Sketch>
void SerializeWindowedSketch(const sketch::WindowedSketch<Sketch>& windowed,
                             ByteWriter& out) {
  out.WriteU8(kWindowedSketchPayloadVersion);
  out.WriteU32(static_cast<uint32_t>(kSketchKindOf<Sketch>.section));
  out.WriteU32(static_cast<uint32_t>(windowed.num_windows()));
  out.WriteU32(static_cast<uint32_t>(windowed.head()));
  out.WriteU64(windowed.window_items());
  out.WriteU64(windowed.window_sequence());
  out.WriteDouble(windowed.decay());
  for (size_t slot = 0; slot < windowed.num_windows(); ++slot) {
    out.WriteU64(windowed.WindowCountAt(slot));
    ByteWriter inner;
    windowed.WindowAt(slot).Serialize(inner);
    const std::vector<uint8_t> inner_bytes = inner.TakeBytes();
    out.WriteU64(inner_bytes.size());
    out.WriteBytes(inner_bytes.data(), inner_bytes.size());
  }
}

template <typename Sketch>
Result<sketch::WindowedSketch<Sketch>> DeserializeWindowedSketch(
    ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU8());
  if (version != kWindowedSketchPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported windowed-sketch payload version " +
        std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(inner_type, in.ReadU32());
  if (inner_type != static_cast<uint32_t>(kSketchKindOf<Sketch>.section)) {
    return Status::InvalidArgument(
        std::string("windowed payload stores ") +
        SectionTypeName(static_cast<SectionType>(inner_type)) +
        " sub-sketches, not " +
        SectionTypeName(kSketchKindOf<Sketch>.section));
  }
  OPTHASH_IO_ASSIGN(num_windows, in.ReadU32());
  OPTHASH_IO_ASSIGN(head, in.ReadU32());
  OPTHASH_IO_ASSIGN(window_items, in.ReadU64());
  OPTHASH_IO_ASSIGN(window_sequence, in.ReadU64());
  OPTHASH_IO_ASSIGN(decay, in.ReadDouble());
  if (num_windows == 0 || num_windows > kMaxWindowsInSnapshot) {
    return Status::InvalidArgument(
        "windowed payload declares " + std::to_string(num_windows) +
        " windows (valid: 1.." + std::to_string(kMaxWindowsInSnapshot) + ")");
  }
  std::vector<Sketch> windows;
  std::vector<uint64_t> counts;
  windows.reserve(num_windows);
  counts.reserve(num_windows);
  for (uint32_t slot = 0; slot < num_windows; ++slot) {
    OPTHASH_IO_ASSIGN(count, in.ReadU64());
    OPTHASH_IO_ASSIGN(payload_len, in.ReadU64());
    if (payload_len > in.remaining()) {
      return Status::InvalidArgument(
          "windowed payload truncated: window " + std::to_string(slot) +
          " declares " + std::to_string(payload_len) + " bytes with " +
          std::to_string(in.remaining()) + " remaining");
    }
    OPTHASH_IO_ASSIGN(payload,
                      in.ReadSpan(static_cast<size_t>(payload_len)));
    ByteReader window_reader(payload);
    auto window = Sketch::Deserialize(window_reader);
    if (!window.ok()) return window.status();
    OPTHASH_IO_RETURN_IF_ERROR(window_reader.ExpectFullyConsumed());
    windows.push_back(std::move(window).value());
    counts.push_back(count);
  }
  return sketch::WindowedSketch<Sketch>::FromParts(
      std::move(windows), std::move(counts), head, window_items,
      window_sequence, decay);
}

/// Checkpoints a windowed ring as a single kWindowedSketch-section
/// snapshot container — the windowed sibling of SaveSketchSnapshot.
template <typename Sketch>
Status SaveWindowedSketchSnapshot(
    const std::string& path, const sketch::WindowedSketch<Sketch>& windowed) {
  ByteWriter payload;
  SerializeWindowedSketch(windowed, payload);
  SnapshotWriter writer;
  writer.AddSection(SectionType::kWindowedSketch, payload.TakeBytes());
  return writer.WriteToFile(path);
}

/// Restores a ring checkpointed by SaveWindowedSketchSnapshot; the caller
/// picks the Sketch type after probing with WindowedInnerTypeOfFile.
template <typename Sketch>
Result<sketch::WindowedSketch<Sketch>> LoadWindowedSketchSnapshot(
    const std::string& path) {
  auto reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();
  const SnapshotSection* section =
      reader.value().view().Find(SectionType::kWindowedSketch);
  if (section == nullptr) {
    return Status::InvalidArgument(
        path + " holds no " +
        SectionTypeName(SectionType::kWindowedSketch) + " section");
  }
  ByteReader in(section->payload);
  auto windowed = DeserializeWindowedSketch<Sketch>(in);
  if (!windowed.ok()) return windowed.status();
  OPTHASH_IO_RETURN_IF_ERROR(in.ExpectFullyConsumed());
  return windowed;
}

}  // namespace opthash::io

#endif  // OPTHASH_IO_WINDOWED_SNAPSHOT_H_
