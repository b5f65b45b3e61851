#ifndef OPTHASH_SKETCH_TOP_K_H_
#define OPTHASH_SKETCH_TOP_K_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/span.h"
#include "sketch/count_min_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/learned_count_min.h"
#include "sketch/misra_gries.h"
#include "sketch/space_saving.h"

namespace opthash::sketch {

/// \brief One reported heavy hitter — the unit of the top-k API that runs
/// from the sketches through ServedModel, the wire protocol, the client
/// and both CLIs (all layers speak this exact record).
///
/// `estimate` is the reporting structure's frequency estimate and keeps
/// that structure's bias direction: a lower bound from Misra-Gries, an
/// upper bound from Space-Saving and Count-Min, exact for Learned
/// Count-Min oracle keys. `error_bound` is a sound deterministic bound on
/// |estimate - f| where the structure has one, with the convention that
/// `error_bound == 0 && !guaranteed` means "no deterministic bound
/// available" (Count-Sketch, model bundles). `guaranteed` is set only
/// when estimate == f exactly.
struct HeavyHitter {
  uint64_t id = 0;
  double estimate = 0.0;
  double error_bound = 0.0;
  bool guaranteed = false;
};

inline bool operator==(const HeavyHitter& a, const HeavyHitter& b) {
  return a.id == b.id && a.estimate == b.estimate &&
         a.error_bound == b.error_bound && a.guaranteed == b.guaranteed;
}

/// Canonical result order everywhere in the stack: estimate descending,
/// id ascending on ties — deterministic for a given summary state.
void SortHeavyHitters(std::vector<HeavyHitter>& hitters);

/// The CSV contract shared by `opthash_cli topk` and `opthash_client
/// topk` (one printer, so served and offline answers diff byte-identical).
inline constexpr const char* kHeavyHitterCsvHeader =
    "id,estimate,error_bound,guaranteed";
std::string HeavyHitterCsvRow(const HeavyHitter& hitter);

/// The k heaviest tracked keys of a Misra-Gries summary, heaviest first.
/// Estimates are lower bounds; every hitter shares the summary-wide
/// deficit bound D = (total - sum of counters) / (capacity + 1), the
/// tightened form of the classic total/(capacity+1) guarantee (each
/// decrement round retires at least capacity+1 arrivals from the tracked
/// sum), so f is in [estimate, estimate + D]. D == 0 means no decrement
/// ever ran and every counter is exact (guaranteed).
std::vector<HeavyHitter> TopK(const MisraGries& summary, size_t k);

/// The k heaviest tracked keys of a Space-Saving summary, heaviest first.
/// Estimates are upper bounds with the summary's per-key tracked error:
/// f is in [estimate - error_bound, estimate]; error_bound == 0 means the
/// key never inherited an evicted counter and its count is exact
/// (guaranteed).
std::vector<HeavyHitter> TopK(const SpaceSaving& summary, size_t k);

/// The k heaviest oracle (heavy-table) keys of a Learned Count-Min
/// sketch. The unique buckets count their keys exactly, so every hitter
/// is guaranteed with error_bound 0; keys outside the oracle set are not
/// candidates (the sketch stores no other ids to scan).
std::vector<HeavyHitter> TopK(const LearnedCountMinSketch& sketch, size_t k);

/// True when `TopK(sketch, k)` above exists for Sketch: the heavy-hitter
/// summaries and the learned count-min's oracle table. Plain cms and
/// countsketch store no candidate ids.
template <typename Sketch, typename = void>
struct HasNativeTopK : std::false_type {};
template <typename Sketch>
struct HasNativeTopK<Sketch,
                     std::void_t<decltype(TopK(std::declval<const Sketch&>(),
                                               size_t{}))>> : std::true_type {
};

/// Threshold-scan fallback for sketches with no internal candidate
/// table: the k heaviest of `candidates` (duplicates ignored) under the
/// sketch's batched EstimateBatch machinery. Count-Min estimates are
/// upper bounds carrying the sketch-wide epsilon * total bound.
std::vector<HeavyHitter> TopKOverCandidates(const CountMinSketch& sketch,
                                            Span<const uint64_t> candidates,
                                            size_t k);

/// Count-Sketch variant (non-negative clamped estimates). The median
/// bound is probabilistic, not deterministic, so error_bound is 0 with
/// guaranteed == false ("no deterministic bound").
std::vector<HeavyHitter> TopKOverCandidates(const CountSketch& sketch,
                                            Span<const uint64_t> candidates,
                                            size_t k);

/// Folds per-shard top-k lists into one: ids appearing in several lists
/// sum their estimates and error bounds (guaranteed only when guaranteed
/// everywhere), then the k heaviest survive in canonical order. Exact
/// composition for the sharded-ingest kKeyPartitioned layout, where
/// every key lives in exactly one shard (an id absent from a shard's
/// list truly has count 0 there); for overlapping shards the result
/// keeps each hitter's bias direction only if every shard reported it.
std::vector<HeavyHitter> MergeTopK(
    Span<const std::vector<HeavyHitter>> shards, size_t k);

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_TOP_K_H_
