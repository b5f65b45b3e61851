#ifndef OPTHASH_SKETCH_WINDOWED_SKETCH_H_
#define OPTHASH_SKETCH_WINDOWED_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/span.h"
#include "common/status.h"
#include "sketch/estimate_as_double.h"
#include "sketch/top_k.h"
#include "stream/sharded_ingest.h"

namespace opthash::sketch {

/// Shared parameter checks for every WindowedSketch instantiation (also
/// used by the snapshot deserializer, so hostile files fail with the same
/// readable messages as bad constructor arguments).
Status ValidateWindowedConfig(size_t num_windows, double decay);
Status ValidateWindowedParts(size_t num_windows, size_t num_counts,
                             size_t head, double decay);

/// The flag checks both fresh-sketch entry points share (`opthash_cli
/// snapshot` and `opthash_serve --sketch`): every geometry size must be
/// >= 1 (zero would trip the sketch constructors' invariant aborts);
/// windows == 0 is lifetime counting, so --window and --decay must stay
/// unset; windows >= 1 needs an item-count advance (window_items >= 1)
/// and a ValidateWindowedConfig-valid decay.
Status ValidateFreshSketchFlags(size_t width, size_t depth, size_t capacity,
                                size_t buckets, size_t windows,
                                uint64_t window_items, double decay);

/// decay^age without std::pow: bit-reproducible across libm versions,
/// which the snapshot/restore equivalence tests rely on.
double WindowDecayWeight(double decay, size_t age);

/// \brief Sliding-window counting over a ring of W mergeable sub-sketches.
///
/// Each window is an independent sub-sketch (same geometry and seed as the
/// prototype); arrivals land in the current window and the ring advances
/// either every `window_items` arrivals or on an explicit AdvanceWindow()
/// tick (window_items == 0 = tick-only mode, the wall-clock driver).
/// Advancing evicts the oldest window, so queries always cover the last
/// W windows of the stream — the smooth-histogram construction over the
/// Merge machinery every sketch kind already proves correct.
///
/// Queries:
///  - decay == 1.0 (default): answers come from a single merged view of
///    all live windows, rebuilt eagerly after every mutating call. For
///    linear sketches (plain count-min, count-sketch) this is bit-identical
///    to a fresh sketch fed only the live arrivals.
///  - decay < 1.0: exponential decay. Estimates are per-window estimates
///    combined with geometric weights decay^age (current window has age 0),
///    so old traffic fades instead of falling off a cliff.
///
/// W == 1 with window_items == 0 never advances and degenerates exactly to
/// the plain sketch. Mutation is single-writer, like the underlying
/// sketches; const queries are safe concurrently because the merged view
/// is maintained eagerly rather than on demand.
template <typename Sketch>
class WindowedSketch {
 public:
  static constexpr bool kHasNativeTopK = HasNativeTopK<Sketch>::value;

  /// The prototype contributes geometry and seed only (via EmptyClone);
  /// any counts it holds are ignored. decay must be in (0, 1].
  static Result<WindowedSketch> Create(const Sketch& prototype,
                                       size_t num_windows,
                                       uint64_t window_items,
                                       double decay = 1.0) {
    Status valid = ValidateWindowedConfig(num_windows, decay);
    if (!valid.ok()) return valid;
    return WindowedSketch(prototype, num_windows, window_items, decay);
  }

  /// Reassembles a ring from snapshot parts: `windows`/`counts` are in
  /// slot (storage) order and `head` indexes the current window, so a
  /// restored ring resumes mid-window exactly where the save left off.
  static Result<WindowedSketch> FromParts(std::vector<Sketch> windows,
                                          std::vector<uint64_t> counts,
                                          size_t head, uint64_t window_items,
                                          uint64_t window_sequence,
                                          double decay) {
    Status valid =
        ValidateWindowedParts(windows.size(), counts.size(), head, decay);
    if (!valid.ok()) return valid;
    WindowedSketch ring(windows.front(), windows.size(), window_items, decay);
    ring.windows_ = std::move(windows);
    ring.window_counts_ = std::move(counts);
    ring.head_ = head;
    ring.window_sequence_ = window_sequence;
    Status merged = ring.TryRebuildMerged();
    if (!merged.ok()) return merged;
    return ring;
  }

  /// One arrival of `key` (or `count` arrivals at once — a multi-count
  /// update is atomic and never split across a window boundary, so the
  /// current window may overshoot window_items before advancing).
  void Update(uint64_t key, uint64_t count = 1) {
    windows_[head_].Update(key, count);
    window_counts_[head_] += count;
    if (window_items_ > 0 && window_counts_[head_] >= window_items_) {
      AdvanceWindowInternal();
    }
    RebuildMerged();
  }

  /// Unit arrivals in stream order, split deterministically at window
  /// boundaries — equivalent to calling Update(key) per key but with one
  /// merged-view rebuild for the whole batch.
  void UpdateBatch(Span<const uint64_t> keys) {
    const Status done =
        IngestSegmented(keys, [this](Span<const uint64_t> segment) {
          windows_[head_].UpdateBatch(segment);
          return Status::OK();
        });
    OPTHASH_CHECK_MSG(done.ok(), "plain UpdateBatch segments cannot fail");
  }

  /// Sharded ingestion into the current window: each window-bounded
  /// segment runs through stream::ShardedIngest, so the window boundaries
  /// land on the same arrivals regardless of thread count and the
  /// per-window contents obey the same replicated/key-partitioned
  /// equivalence guarantees as un-windowed sharded ingest.
  Status Ingest(Span<const uint64_t> keys,
                const stream::ShardedIngestConfig& config) {
    return IngestSegmented(keys, [&](Span<const uint64_t> segment) {
      auto stats = stream::ShardedIngest(segment, config, windows_[head_]);
      return stats.ok() ? Status::OK() : stats.status();
    });
  }

  /// Manual tick: evict the oldest window and start a fresh one (the
  /// wall-clock advance primitive; also what item-count mode calls
  /// internally).
  void AdvanceWindow() {
    AdvanceWindowInternal();
    RebuildMerged();
  }

  /// Windowed point query; see the class comment for decay semantics.
  double Estimate(uint64_t key) const {
    if (!decayed()) return static_cast<double>(merged_.Estimate(key));
    double sum = 0.0;
    for (size_t slot = 0; slot < windows_.size(); ++slot) {
      if (window_counts_[slot] == 0) continue;
      sum += WindowDecayWeight(decay_, AgeOfSlot(slot)) *
             static_cast<double>(windows_[slot].Estimate(key));
    }
    return sum;
  }

  /// Batched point queries: out[i] = Estimate(keys[i]), allocation-free.
  void EstimateBatch(Span<const uint64_t> keys, Span<double> out) const {
    OPTHASH_CHECK_EQ(keys.size(), out.size());
    if (decayed()) {
      for (size_t i = 0; i < keys.size(); ++i) out[i] = Estimate(keys[i]);
      return;
    }
    EstimateBatchAsDouble(merged_, keys, out);
  }

  /// Top-k over the live windows: per-window candidate lists folded with
  /// MergeTopK; in decay mode each window's estimates and error bounds are
  /// scaled by its geometric weight first. Only instantiable for kinds
  /// with a native TopK (misra-gries, space-saving, learned-count-min).
  std::vector<HeavyHitter> TopK(size_t k) const {
    static_assert(kHasNativeTopK,
                  "TopK needs an inner sketch with candidate ids");
    std::vector<std::vector<HeavyHitter>> per_window;
    for (size_t slot = 0; slot < windows_.size(); ++slot) {
      // Windows that saw no arrivals contribute nothing; including their
      // empty lists would only strip MergeTopK's everywhere-guarantee.
      if (window_counts_[slot] == 0) continue;
      std::vector<HeavyHitter> hitters = sketch::TopK(windows_[slot], k);
      if (decayed()) {
        const double weight = WindowDecayWeight(decay_, AgeOfSlot(slot));
        for (HeavyHitter& hitter : hitters) {
          hitter.estimate *= weight;
          hitter.error_bound *= weight;
        }
      }
      per_window.push_back(std::move(hitters));
    }
    if (per_window.empty()) return {};
    return MergeTopK(
        Span<const std::vector<HeavyHitter>>(per_window.data(),
                                             per_window.size()),
        k);
  }

  size_t num_windows() const { return windows_.size(); }
  uint64_t window_items() const { return window_items_; }
  double decay() const { return decay_; }
  bool decayed() const { return decay_ < 1.0; }
  /// Slot index of the current window (storage order, for serialization).
  size_t head() const { return head_; }
  /// Total ring advances since creation (never wraps back).
  uint64_t window_sequence() const { return window_sequence_; }
  uint64_t items_in_current_window() const { return window_counts_[head_]; }

  /// Live arrivals = sum over all windows still in the ring.
  uint64_t total_items() const {
    uint64_t total = 0;
    for (uint64_t count : window_counts_) total += count;
    return total;
  }

  /// Per-window arrival counts ordered oldest window first (what the
  /// kWindowStats wire reply carries).
  std::vector<uint64_t> WindowCountsOldestFirst() const {
    std::vector<uint64_t> counts;
    counts.reserve(windows_.size());
    for (size_t age = windows_.size(); age-- > 0;) {
      counts.push_back(window_counts_[SlotOfAge(age)]);
    }
    return counts;
  }

  /// Storage-order accessors for the snapshot writer.
  const Sketch& WindowAt(size_t slot) const { return windows_[slot]; }
  uint64_t WindowCountAt(size_t slot) const { return window_counts_[slot]; }

  /// The merged (undecayed) view — what non-decay queries answer from.
  const Sketch& MergedView() const { return merged_; }

 private:
  WindowedSketch(const Sketch& prototype, size_t num_windows,
                 uint64_t window_items, double decay)
      : head_(0),
        window_items_(window_items),
        window_sequence_(0),
        decay_(decay),
        merged_(prototype.EmptyClone()) {
    windows_.reserve(num_windows);
    for (size_t i = 0; i < num_windows; ++i) {
      windows_.push_back(prototype.EmptyClone());
    }
    window_counts_.assign(num_windows, 0);
  }

  size_t AgeOfSlot(size_t slot) const {
    return (head_ + windows_.size() - slot) % windows_.size();
  }
  size_t SlotOfAge(size_t age) const {
    return (head_ + windows_.size() - age) % windows_.size();
  }

  void AdvanceWindowInternal() {
    head_ = (head_ + 1) % windows_.size();
    windows_[head_] = windows_[head_].EmptyClone();
    window_counts_[head_] = 0;
    ++window_sequence_;
  }

  /// Splits `keys` at window boundaries and feeds each segment to
  /// `ingest_segment` (which must append into windows_[head_]). The
  /// merged view is rebuilt exactly once, even on early error, so the
  /// ring never serves stale answers.
  template <typename IngestSegment>
  Status IngestSegmented(Span<const uint64_t> keys,
                         IngestSegment&& ingest_segment) {
    if (keys.empty()) return Status::OK();
    size_t offset = 0;
    Status result = Status::OK();
    while (offset < keys.size()) {
      size_t take = keys.size() - offset;
      if (window_items_ > 0) {
        if (window_counts_[head_] >= window_items_) {
          // Only reachable via a multi-count Update overshoot.
          AdvanceWindowInternal();
        }
        take = std::min<size_t>(
            take, static_cast<size_t>(window_items_ - window_counts_[head_]));
      }
      result = ingest_segment(
          Span<const uint64_t>(keys.data() + offset, take));
      if (!result.ok()) break;
      window_counts_[head_] += take;
      offset += take;
      if (window_items_ > 0 && window_counts_[head_] >= window_items_) {
        AdvanceWindowInternal();
      }
    }
    RebuildMerged();
    return result;
  }

  Status TryRebuildMerged() {
    merged_ = windows_.front().EmptyClone();
    for (const Sketch& window : windows_) {
      Status merged = merged_.Merge(window);
      if (!merged.ok()) return merged;
    }
    return Status::OK();
  }

  void RebuildMerged() {
    const Status merged = TryRebuildMerged();
    OPTHASH_CHECK_MSG(merged.ok(),
                      "ring sub-sketches share geometry by construction");
  }

  std::vector<Sketch> windows_;          // Slot (storage) order.
  std::vector<uint64_t> window_counts_;  // Arrivals per slot.
  size_t head_;                          // Slot of the current window.
  uint64_t window_items_;                // 0 = advance only on explicit tick.
  uint64_t window_sequence_;
  double decay_;
  Sketch merged_;  // Undecayed union of all live windows.
};

}  // namespace opthash::sketch

#endif  // OPTHASH_SKETCH_WINDOWED_SKETCH_H_
