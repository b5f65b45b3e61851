#ifndef OPTHASH_IO_SKETCH_KINDS_H_
#define OPTHASH_IO_SKETCH_KINDS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/span.h"
#include "common/status.h"
#include "io/snapshot.h"
#include "sketch/ams_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/learned_count_min.h"
#include "sketch/misra_gries.h"
#include "sketch/space_saving.h"
#include "stream/sharded_ingest.h"

namespace opthash::io {

/// What a fresh, empty sketch is built from: the union of the `--sketch`
/// geometry flags of `opthash_cli snapshot` and `opthash_serve`. Each
/// kind reads only the fields its constructor takes.
struct FreshSketchGeometry {
  size_t width = 1024;
  size_t depth = 4;
  size_t capacity = 256;
  size_t buckets = 1024;
  size_t heavy = 16;
  uint64_t seed = 1;
  bool conservative = false;
  /// Arrivals the learned count-min ranks its top-`heavy` oracle keys
  /// from. Empty (a fresh daemon) gives an empty oracle set: pure CMS.
  Span<const uint64_t> prefix;
};

/// The plain-data columns of one sketch kind.
struct SketchKindInfo {
  /// `--sketch` value on the command lines.
  const char* cli_name;
  /// Stable on-disk section id (docs/FORMATS.md). SectionTypeName of it
  /// is the kind name the daemon and the CLI report.
  SectionType section;
  /// How sharded ingest splits arrivals across worker replicas.
  stream::ShardMode shard_mode;
  /// Answers per-key frequency queries (servable). AMS answers only the
  /// stream-wide F2 moment.
  bool per_key;
  /// Can count in a WindowedSketch ring.
  bool windowable;
  /// Has a zero-copy mapped serving view (MappedCountMinView).
  bool mmap_view;
};

/// One row of the table: a sketch type, its columns and how to build an
/// empty one from the geometry flags.
template <typename S>
struct SketchKindRow {
  using Sketch = S;
  SketchKindInfo info;
  Result<S> (*make_fresh)(const FreshSketchGeometry&);
};

/// \brief The sketch-kind table: every kind the CLI checkpoints and the
/// daemon serves, named once. Every per-kind dispatch (open, create,
/// resume, restore, fuzz) visits this table, so adding a kind is one
/// row here plus its SectionType.
inline constexpr std::tuple kSketchKinds{
    SketchKindRow<sketch::CountMinSketch>{
        {"cms", SectionType::kCountMinSketch, stream::ShardMode::kReplicated,
         /*per_key=*/true, /*windowable=*/true, /*mmap_view=*/true},
        [](const FreshSketchGeometry& g) -> Result<sketch::CountMinSketch> {
          return sketch::CountMinSketch(g.width, g.depth, g.seed,
                                        g.conservative);
        }},
    SketchKindRow<sketch::CountSketch>{
        {"countsketch", SectionType::kCountSketch,
         stream::ShardMode::kReplicated,
         /*per_key=*/true, /*windowable=*/true, /*mmap_view=*/false},
        [](const FreshSketchGeometry& g) -> Result<sketch::CountSketch> {
          return sketch::CountSketch(g.width, g.depth, g.seed);
        }},
    SketchKindRow<sketch::AmsSketch>{
        {"ams", SectionType::kAmsSketch, stream::ShardMode::kReplicated,
         /*per_key=*/false, /*windowable=*/false, /*mmap_view=*/false},
        [](const FreshSketchGeometry& g) -> Result<sketch::AmsSketch> {
          return sketch::AmsSketch(g.depth, g.capacity, g.seed);
        }},
    SketchKindRow<sketch::LearnedCountMinSketch>{
        {"lcms", SectionType::kLearnedCountMin,
         stream::ShardMode::kReplicated,
         /*per_key=*/true, /*windowable=*/true, /*mmap_view=*/false},
        [](const FreshSketchGeometry& g)
            -> Result<sketch::LearnedCountMinSketch> {
          std::unordered_map<uint64_t, uint64_t> counts;
          for (uint64_t id : g.prefix) ++counts[id];
          return sketch::LearnedCountMinSketch::Create(
              g.buckets, g.depth, sketch::SelectTopKeys(counts, g.heavy),
              g.seed);
        }},
    SketchKindRow<sketch::MisraGries>{
        {"mg", SectionType::kMisraGries, stream::ShardMode::kKeyPartitioned,
         /*per_key=*/true, /*windowable=*/true, /*mmap_view=*/false},
        [](const FreshSketchGeometry& g) -> Result<sketch::MisraGries> {
          return sketch::MisraGries(g.capacity);
        }},
    SketchKindRow<sketch::SpaceSaving>{
        {"ss", SectionType::kSpaceSaving, stream::ShardMode::kKeyPartitioned,
         /*per_key=*/true, /*windowable=*/true, /*mmap_view=*/false},
        [](const FreshSketchGeometry& g) -> Result<sketch::SpaceSaving> {
          return sketch::SpaceSaving(g.capacity);
        }},
};

/// The row handed to ForEachSketchKind/VisitSketchKind callbacks, as a
/// type: `Sketch` is the sketch type and `kInfo` its columns, both usable
/// in `if constexpr`.
template <size_t I>
struct SketchKindAt {
  using Sketch = typename std::tuple_element_t<
      I, std::remove_const_t<decltype(kSketchKinds)>>::Sketch;
  static constexpr SketchKindInfo kInfo = std::get<I>(kSketchKinds).info;
  static Result<Sketch> MakeFresh(const FreshSketchGeometry& geometry) {
    return std::get<I>(kSketchKinds).make_fresh(geometry);
  }
};

/// The columns of Sketch's row.
template <typename Sketch>
inline constexpr SketchKindInfo kSketchKindOf =
    std::get<SketchKindRow<Sketch>>(kSketchKinds).info;

/// The kind name reported for Sketch ("count-min", "misra-gries", ...).
template <typename Sketch>
const char* SketchKindName() {
  return SectionTypeName(kSketchKindOf<Sketch>.section);
}

namespace internal {
template <typename F, size_t... I>
void ForEachSketchKind(F& f, std::index_sequence<I...>) {
  (f(SketchKindAt<I>{}), ...);
}
inline bool KindMatches(const SketchKindInfo& info, SectionType section) {
  return info.section == section;
}
inline bool KindMatches(const SketchKindInfo& info, std::string_view name) {
  return name == info.cli_name;
}
}  // namespace internal

/// Calls f(SketchKindAt<I>{}) for every row, in table order.
template <typename F>
void ForEachSketchKind(F&& f) {
  internal::ForEachSketchKind(
      f, std::make_index_sequence<std::tuple_size_v<
             std::remove_const_t<decltype(kSketchKinds)>>>{});
}

/// Returns f(SketchKindAt<I>{}) for the row whose section (a SectionType
/// key) or `--sketch` name (a string key) matches, or std::nullopt when
/// no row does. f is instantiated for every row, so code that only some
/// kinds compile goes behind `if constexpr` on a kInfo column.
template <typename Key, typename F>
auto VisitSketchKind(const Key& key, F&& f)
    -> std::optional<decltype(f(SketchKindAt<0>{}))> {
  std::optional<decltype(f(SketchKindAt<0>{}))> result;
  ForEachSketchKind([&](auto kind) {
    if (!result.has_value() &&
        internal::KindMatches(decltype(kind)::kInfo, key)) {
      result.emplace(f(kind));
    }
  });
  return result;
}

}  // namespace opthash::io

#endif  // OPTHASH_IO_SKETCH_KINDS_H_
