#ifndef OPTHASH_IO_ARTIFACT_H_
#define OPTHASH_IO_ARTIFACT_H_

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "common/span.h"
#include "common/status.h"
#include "io/bytes.h"
#include "io/model_io.h"
#include "io/sketch_kinds.h"
#include "io/sketch_snapshot.h"
#include "io/snapshot.h"
#include "io/windowed_snapshot.h"
#include "sketch/windowed_sketch.h"

namespace opthash::io {

/// True for the zero-copy views VisitArtifact hands over on an mmap open.
template <typename T>
inline constexpr bool kIsMappedView =
    std::is_same_v<T, MappedEstimatorView> ||
    std::is_same_v<T, MappedCountMinView>;

/// True for a WindowedSketch ring.
template <typename T>
inline constexpr bool kIsWindowed = false;
template <typename Sketch>
inline constexpr bool kIsWindowed<sketch::WindowedSketch<Sketch>> = true;

namespace internal {

/// A file opened once by OpenArtifact. It holds exactly one of: a model
/// bundle, a mapped bundle, or the one section of a sketch checkpoint
/// together with the reader or mapping that owns its bytes.
struct OpenedArtifact {
  std::optional<ModelBundle> bundle;
  std::optional<MappedEstimatorView> mapped_bundle;
  /// Checkpoints: the sketch kind (a ring's sub-sketch kind) and whether
  /// the section is a windowed ring.
  SectionType sketch = SectionType::kCountMinSketch;
  bool windowed = false;
  /// The checkpoint's section payload, inside `reader` or `mapping`.
  Span<const uint8_t> payload;
  std::optional<SnapshotReader> reader;
  std::optional<MappedSnapshot> mapping;
};

/// Decides what the file at `path` holds and opens it once. A text
/// bundle is parsed. A snapshot container is read in full with every
/// CRC checked or, with `use_mmap`, mapped with its header and section
/// table checked. A container with one sketch or windowed-sketch section
/// is a checkpoint, and a ring's sub-sketch kind is read from the payload
/// already in hand. Any other container must be a model bundle, which is
/// loaded (or, mapped, viewed) here.
Result<OpenedArtifact> OpenArtifact(const std::string& path, bool use_mmap);

}  // namespace internal

/// \brief The one opener for every artifact the CLI writes: model bundles
/// in either encoding and single-sketch checkpoints, plain or windowed.
///
/// Opens `path` once and returns f(artifact), where artifact is an rvalue
/// of exactly one of:
///   - ModelBundle: a text bundle, or a binary one opened without mmap;
///   - MappedEstimatorView: a binary bundle opened with `use_mmap`;
///   - MappedCountMinView: a checkpoint of a kind whose sketch-kind row
///     has the mmap_view column, opened with `use_mmap`;
///   - a plain sketch: any other checkpoint, fully loaded;
///   - sketch::WindowedSketch<Sketch>: a windowed checkpoint, fully loaded.
/// An mmap request on a kind without a mapped view falls back to a full
/// load from the mapping, after every payload CRC is checked; f sees a
/// non-view type and can report the fallback. f must return the same
/// type R for every alternative, and R must be constructible from a
/// Status (Status or Result<T>): open and parse errors come back as R.
template <typename F>
auto VisitArtifact(const std::string& path, bool use_mmap, F&& f)
    -> decltype(f(std::declval<ModelBundle>())) {
  using R = decltype(f(std::declval<ModelBundle>()));
  auto opened = internal::OpenArtifact(path, use_mmap);
  if (!opened.ok()) return opened.status();
  internal::OpenedArtifact& file = opened.value();
  if (file.bundle.has_value()) return f(std::move(*file.bundle));
  if (file.mapped_bundle.has_value()) return f(std::move(*file.mapped_bundle));
  // OpenArtifact yields a checkpoint only for a kind in the table.
  return *VisitSketchKind(file.sketch, [&](auto kind) -> R {
    using Kind = decltype(kind);
    using Sketch = typename Kind::Sketch;
    if (file.mapping.has_value()) {
      if constexpr (Kind::kInfo.mmap_view) {
        static_assert(std::is_same_v<Sketch, sketch::CountMinSketch>,
                      "MappedCountMinView is the only mapped sketch view");
        if (!file.windowed) {
          auto view = MappedCountMinView::FromMapping(
              std::move(*file.mapping), path);
          if (!view.ok()) return view.status();
          return f(std::move(view).value());
        }
      }
      const Status intact = file.mapping->view().VerifyPayloadCrcs();
      if (!intact.ok()) return intact;
    }
    ByteReader in(file.payload);
    const auto deliver = [&](auto parsed) -> R {
      if (!parsed.ok()) return parsed.status();
      const Status consumed = in.ExpectFullyConsumed();
      if (!consumed.ok()) return consumed;
      return f(std::move(parsed).value());
    };
    if (file.windowed) {
      if constexpr (Kind::kInfo.windowable) {
        return deliver(DeserializeWindowedSketch<Sketch>(in));
      } else {
        return Status::InvalidArgument(
            path + " wraps a sub-sketch kind without per-key estimates");
      }
    }
    return deliver(Sketch::Deserialize(in));
  });
}

}  // namespace opthash::io

#endif  // OPTHASH_IO_ARTIFACT_H_
