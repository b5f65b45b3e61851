#include "io/windowed_snapshot.h"

namespace opthash::io {

Result<SectionType> PeekWindowedInnerType(Span<const uint8_t> payload) {
  ByteReader in(payload);
  OPTHASH_IO_ASSIGN(version, in.ReadU8());
  if (version != kWindowedSketchPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported windowed-sketch payload version " +
        std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(inner_type, in.ReadU32());
  const auto inner = static_cast<SectionType>(inner_type);
  if (!VisitSketchKind(inner, [](auto) { return true; }).has_value()) {
    return Status::InvalidArgument(
        "windowed payload declares unknown sub-sketch section type " +
        std::to_string(inner_type));
  }
  return inner;
}

}  // namespace opthash::io
