#include "server/served_model.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/model_io.h"
#include "io/sketch_kinds.h"
#include "io/sketch_snapshot.h"
#include "io/windowed_snapshot.h"
#include "sketch/estimate_as_double.h"
#include "sketch/windowed_sketch.h"
#include "stream/trace_io.h"

namespace opthash::server {
namespace {

// ---------------------------------------------------------------------------
// Shared adapters.

// total_count() where the sketch tracks one (count-min, misra-gries,
// space-saving), 0 otherwise — resolved by overload preference.
template <typename Sketch>
auto TotalItemsOf(const Sketch& sketch, int) -> decltype(sketch.total_count()) {
  return sketch.total_count();
}
template <typename Sketch>
uint64_t TotalItemsOf(const Sketch&, long) {  // NOLINT runtime/int
  return 0;
}

class EmptyContext : public ServedModel::QueryContext {};

void SortAndTruncateHitters(std::vector<sketch::HeavyHitter>& hitters,
                            size_t k) {
  sketch::SortHeavyHitters(hitters);
  if (hitters.size() > k) hitters.resize(k);
}

// ---------------------------------------------------------------------------
// Mutable sketch models.

template <typename Sketch>
class SketchModel : public ServedModel {
 public:
  explicit SketchModel(Sketch sketch) : sketch_(std::move(sketch)) {}

  const char* Kind() const override { return io::SketchKindName<Sketch>(); }
  bool ReadOnly() const override { return false; }

  Status Ingest(Span<const uint64_t> keys,
                const stream::ShardedIngestConfig& config) override {
    stream::ShardedIngestConfig sharded = config;
    sharded.mode = io::kSketchKindOf<Sketch>.shard_mode;
    auto stats = stream::ShardedIngest(keys, sharded, sketch_);
    return stats.ok() ? Status::OK() : stats.status();
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<EmptyContext>();
  }

  void EstimateBatch(QueryContext& /*context*/, Span<const uint64_t> keys,
                     Span<double> out) const override {
    sketch::EstimateBatchAsDouble(sketch_, keys, out);
  }

  bool SupportsTopK() const override {
    return sketch::HasNativeTopK<Sketch>::value;
  }

  Status TopK(QueryContext& context, size_t k,
              std::vector<sketch::HeavyHitter>& out) const override {
    if constexpr (sketch::HasNativeTopK<Sketch>::value) {
      out = sketch::TopK(sketch_, k);
      return Status::OK();
    } else {
      return ServedModel::TopK(context, k, out);
    }
  }

  Status SaveSnapshot(const std::string& path) const override {
    return io::SaveSketchSnapshot(path, sketch_);
  }

  uint64_t TotalItems() const override { return TotalItemsOf(sketch_, 0); }

 private:
  Sketch sketch_;
};

// ---------------------------------------------------------------------------
// Windowed sketch rings (sliding-window / decayed counting).

template <typename Sketch>
class WindowedSketchModel : public ServedModel {
 public:
  explicit WindowedSketchModel(sketch::WindowedSketch<Sketch> ring)
      : ring_(std::move(ring)),
        kind_(std::string("windowed-") + io::SketchKindName<Sketch>()) {}

  const char* Kind() const override { return kind_.c_str(); }
  bool ReadOnly() const override { return false; }

  Status Ingest(Span<const uint64_t> keys,
                const stream::ShardedIngestConfig& config) override {
    stream::ShardedIngestConfig sharded = config;
    sharded.mode = io::kSketchKindOf<Sketch>.shard_mode;
    return ring_.Ingest(keys, sharded);
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<EmptyContext>();
  }

  void EstimateBatch(QueryContext& /*context*/, Span<const uint64_t> keys,
                     Span<double> out) const override {
    ring_.EstimateBatch(keys, out);
  }

  bool SupportsTopK() const override {
    return sketch::WindowedSketch<Sketch>::kHasNativeTopK;
  }

  Status TopK(QueryContext& context, size_t k,
              std::vector<sketch::HeavyHitter>& out) const override {
    if constexpr (sketch::WindowedSketch<Sketch>::kHasNativeTopK) {
      out = ring_.TopK(k);
      return Status::OK();
    } else {
      return ServedModel::TopK(context, k, out);
    }
  }

  bool SupportsWindowStats() const override { return true; }

  Status WindowStats(WindowStatsSnapshot& out) const override {
    out.window_items = ring_.window_items();
    out.window_sequence = ring_.window_sequence();
    out.items_in_current_window = ring_.items_in_current_window();
    out.decay = ring_.decay();
    out.window_counts = ring_.WindowCountsOldestFirst();
    return Status::OK();
  }

  Status SaveSnapshot(const std::string& path) const override {
    return io::SaveWindowedSketchSnapshot(path, ring_);
  }

  /// Live arrivals only: evicted windows leave the total, which is the
  /// honest "how much does this model currently count" answer.
  uint64_t TotalItems() const override { return ring_.total_items(); }

 private:
  sketch::WindowedSketch<Sketch> ring_;
  std::string kind_;
};

// ---------------------------------------------------------------------------
// Model bundles (featurizer + OptHashEstimator + classifier).

class BundleModel : public ServedModel {
 public:
  explicit BundleModel(io::ModelBundle bundle)
      : bundle_(std::make_unique<io::ModelBundle>(std::move(bundle))) {}

  const char* Kind() const override { return "model-bundle"; }
  bool ReadOnly() const override { return false; }

  Status Ingest(Span<const uint64_t> keys,
                const stream::ShardedIngestConfig& config) override {
    // Stream processing only adds to bucket counters through the
    // read-only learned table, so per-worker delta arrays folded back at
    // the end are exactly a sequential Update loop (the `apply` verb's
    // engine invocation).
    core::OptHashEstimator& estimator = *bundle_->estimator;
    auto stats = stream::ShardedIngestCustom(
        keys, config,
        [&estimator](size_t) {
          return std::vector<double>(estimator.num_buckets(), 0.0);
        },
        [&estimator](std::vector<double>& deltas, size_t /*worker*/,
                     Span<const uint64_t> block) {
          estimator.AccumulateUpdates(block, deltas);
        },
        [&estimator](std::vector<double>& deltas) {
          return estimator.ApplyBucketDeltas(deltas);
        });
    return stats.ok() ? Status::OK() : stats.status();
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<Context>(*bundle_);
  }

  void EstimateBatch(QueryContext& context, Span<const uint64_t> keys,
                     Span<double> out) const override {
    // Key-only serving routes through the same BundleQueryEngine as the
    // offline `query` verb: ids the learned table resolves never touch
    // the featurizer, and misses are blank-text queries, which take the
    // blank-payload bucket the session's engine classified once. The
    // TraceRecord block reuses its storage (ids overwritten in place,
    // texts stay empty), so a warm session allocates nothing here.
    auto& ctx = static_cast<Context&>(context);
    ctx.block.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) ctx.block[i].id = keys[i];
    ctx.engine.EstimateBlock(
        Span<const stream::TraceRecord>(ctx.block.data(), ctx.block.size()),
        out);
  }

  bool SupportsTopK() const override { return true; }

  Status TopK(QueryContext& context, size_t k,
              std::vector<sketch::HeavyHitter>& out) const override {
    // Candidate set: the learned table's stored ids — the only keys the
    // bundle distinguishes individually (everything else shares classifier
    // buckets). Ascending id order makes the scan deterministic; every
    // candidate resolves in the table, so the classifier never runs. The
    // bucket-average estimates carry no deterministic per-key bound.
    std::vector<uint64_t> ids;
    ids.reserve(bundle_->estimator->table().size());
    for (const auto& [id, bucket] : bundle_->estimator->table()) {
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    out.clear();
    out.reserve(ids.size());
    constexpr size_t kChunk = 256;
    double estimates[kChunk];
    for (size_t base = 0; base < ids.size(); base += kChunk) {
      const size_t chunk = std::min(kChunk, ids.size() - base);
      EstimateBatch(context,
                    Span<const uint64_t>(ids.data() + base, chunk),
                    Span<double>(estimates, chunk));
      for (size_t i = 0; i < chunk; ++i) {
        out.push_back({ids[base + i], estimates[i], 0.0, false});
      }
    }
    SortAndTruncateHitters(out, k);
    return Status::OK();
  }

  Status SaveSnapshot(const std::string& path) const override {
    return io::SaveModelBundle(path, *bundle_, io::SnapshotFormat::kBinary);
  }

  uint64_t TotalItems() const override { return 0; }

 private:
  struct Context : QueryContext {
    explicit Context(const io::ModelBundle& bundle) : engine(bundle) {}
    io::BundleQueryEngine engine;
    std::vector<stream::TraceRecord> block;
  };

  // unique_ptr keeps the bundle's address stable: every session's
  // BundleQueryEngine holds a reference into it.
  std::unique_ptr<io::ModelBundle> bundle_;
};

// ---------------------------------------------------------------------------
// Zero-copy mmap views (read-only serving).

Status ReadOnlyError(const char* kind, const char* what) {
  return Status::FailedPrecondition(
      std::string(kind) + " is served read-only from the mapped file; " +
      what + " needs a full load (restart without --mmap)");
}

class MappedCountMinModel : public ServedModel {
 public:
  explicit MappedCountMinModel(io::MappedCountMinView view)
      : view_(std::move(view)) {}

  const char* Kind() const override { return "mapped-count-min"; }
  bool ReadOnly() const override { return true; }

  Status Ingest(Span<const uint64_t>,
                const stream::ShardedIngestConfig&) override {
    return ReadOnlyError(Kind(), "ingest");
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<EmptyContext>();
  }

  void EstimateBatch(QueryContext& /*context*/, Span<const uint64_t> keys,
                     Span<double> out) const override {
    sketch::EstimateBatchAsDouble(view_, keys, out);
  }

  Status SaveSnapshot(const std::string& path) const override {
    (void)path;
    return ReadOnlyError(Kind(), "snapshot rotation");
  }

  uint64_t TotalItems() const override { return view_.total_count(); }

 private:
  io::MappedCountMinView view_;
};

class MappedBundleModel : public ServedModel {
 public:
  explicit MappedBundleModel(io::MappedEstimatorView view)
      : view_(std::move(view)) {}

  const char* Kind() const override { return "mapped-model-bundle"; }
  bool ReadOnly() const override { return true; }

  Status Ingest(Span<const uint64_t>,
                const stream::ShardedIngestConfig&) override {
    return ReadOnlyError(Kind(), "ingest");
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<EmptyContext>();
  }

  void EstimateBatch(QueryContext& /*context*/, Span<const uint64_t> keys,
                     Span<double> out) const override {
    view_.EstimateBatch(keys, out);
  }

  bool SupportsTopK() const override { return true; }

  Status TopK(QueryContext& /*context*/, size_t k,
              std::vector<sketch::HeavyHitter>& out) const override {
    // Same candidate set as BundleModel — the stored-id table, already
    // ascending on disk — through the view's batch path, so the mapped
    // answers are bit-identical to the full-load bundle's.
    const size_t stored = view_.num_stored_ids();
    out.clear();
    out.reserve(stored);
    constexpr size_t kChunk = 256;
    uint64_t ids[kChunk];
    double estimates[kChunk];
    for (size_t base = 0; base < stored; base += kChunk) {
      const size_t chunk = std::min(kChunk, stored - base);
      for (size_t i = 0; i < chunk; ++i) {
        ids[i] = view_.StoredId(base + i);
      }
      view_.EstimateBatch(Span<const uint64_t>(ids, chunk),
                          Span<double>(estimates, chunk));
      for (size_t i = 0; i < chunk; ++i) {
        out.push_back({ids[i], estimates[i], 0.0, false});
      }
    }
    SortAndTruncateHitters(out, k);
    return Status::OK();
  }

  Status SaveSnapshot(const std::string& path) const override {
    (void)path;
    return ReadOnlyError(Kind(), "snapshot rotation");
  }

  uint64_t TotalItems() const override { return 0; }

 private:
  io::MappedEstimatorView view_;
};

Status AmsRejected(const std::string& path) {
  return Status::InvalidArgument(
      path +
      " holds an AMS checkpoint, which answers only the stream-wide F2 "
      "moment — it cannot serve per-key frequency queries (use `restore`)");
}

// Opens a single-sketch checkpoint: a plain sketch, or a windowed ring
// whose inner section picks the kind. Only count-min has a mapped view;
// every other kind (windowed rings included) falls back to a full load
// on an mmap request (mmap_used stays false) rather than refusing to
// serve.
Result<OpenedModel> OpenSketch(const std::string& path, io::SectionType type,
                               bool use_mmap) {
  const bool windowed = type == io::SectionType::kWindowedSketch;
  if (windowed) {
    auto inner = io::WindowedInnerTypeOfFile(path);
    if (!inner.ok()) return inner.status();
    type = inner.value();
  }
  const Status unservable = Status::InvalidArgument(
      path + (windowed ? " holds no servable windowed sub-sketch"
                       : " holds no servable sketch section"));
  auto opened = io::VisitSketchKind(
      type, [&](auto kind) -> Result<OpenedModel> {
        using Kind = decltype(kind);
        using Sketch = typename Kind::Sketch;
        OpenedModel opened;
        if constexpr (!Kind::kInfo.per_key) {
          return AmsRejected(path);
        } else if (windowed) {
          static_assert(Kind::kInfo.windowable,
                        "the daemon serves every per-key kind windowed too");
          auto ring = io::LoadWindowedSketchSnapshot<Sketch>(path);
          if (!ring.ok()) return ring.status();
          opened.model = std::make_unique<WindowedSketchModel<Sketch>>(
              std::move(ring).value());
          return opened;
        } else {
          if constexpr (Kind::kInfo.mmap_view) {
            static_assert(std::is_same_v<Sketch, sketch::CountMinSketch>,
                          "MappedCountMinView is the only mapped sketch view");
            if (use_mmap) {
              auto view = io::MappedCountMinView::Open(path);
              if (!view.ok()) return view.status();
              opened.model = std::make_unique<MappedCountMinModel>(
                  std::move(view).value());
              opened.mmap_used = true;
              return opened;
            }
          }
          auto sketch = io::LoadSketchSnapshot<Sketch>(path);
          if (!sketch.ok()) return sketch.status();
          opened.model =
              std::make_unique<SketchModel<Sketch>>(std::move(sketch).value());
          return opened;
        }
      });
  if (!opened.has_value()) return unservable;
  return std::move(*opened);
}

// "learned-count-min, windowed-learned-count-min, ..., mapped-model-bundle":
// every served kind with native top-k, for the unsupported-kind error.
std::string TopKKinds() {
  std::string kinds;
  io::ForEachSketchKind([&](auto kind) {
    using Kind = decltype(kind);
    if constexpr (sketch::HasNativeTopK<typename Kind::Sketch>::value) {
      const std::string name = io::SectionTypeName(Kind::kInfo.section);
      kinds += name + ", ";
      if (Kind::kInfo.windowable) kinds += "windowed-" + name + ", ";
    }
  });
  return kinds + "model-bundle, mapped-model-bundle";
}

}  // namespace

Status ServedModel::TopK(QueryContext& /*context*/, size_t /*k*/,
                         std::vector<sketch::HeavyHitter>& out) const {
  out.clear();
  return Status::FailedPrecondition(
      std::string(Kind()) +
      " stores no candidate ids and cannot answer top-k; supported kinds: " +
      TopKKinds());
}

Status ServedModel::WindowStats(WindowStatsSnapshot& out) const {
  out = WindowStatsSnapshot();
  return Status::FailedPrecondition(
      std::string(Kind()) +
      " counts over the whole stream, not a sliding window; start the "
      "daemon with --windows W --window N (or serve a windowed checkpoint) "
      "to get window stats");
}

Result<OpenedModel> OpenServedModel(const std::string& path, bool use_mmap) {
  auto format = io::DetectFileFormat(path);
  if (!format.ok()) return format.status();

  if (format.value() == io::SnapshotFormat::kText) {
    // A text bundle has no mappable layout; like every other unsupported
    // kind, an mmap request falls back to a full load (reported via
    // mmap_used) instead of refusing to serve — a daemon that comes up
    // degraded beats one that stays down. The offline `restore --mmap`
    // verb follows the same contract.
    auto bundle = io::LoadModelBundle(path);
    if (!bundle.ok()) return bundle.status();
    OpenedModel opened;
    opened.model = std::make_unique<BundleModel>(std::move(bundle).value());
    return opened;
  }

  auto sections = io::ListSnapshotSections(path);
  if (!sections.ok()) return sections.status();
  if (sections.value().size() == 1 &&
      sections.value().front() < io::SectionType::kLogisticRegression) {
    return OpenSketch(path, sections.value().front(), use_mmap);
  }

  // Multi-section binary files are model bundles.
  if (use_mmap) {
    auto view = io::MappedEstimatorView::Open(path);
    if (!view.ok()) return view.status();
    OpenedModel opened;
    opened.model =
        std::make_unique<MappedBundleModel>(std::move(view).value());
    opened.mmap_used = true;
    return opened;
  }
  auto bundle = io::LoadModelBundle(path);
  if (!bundle.ok()) return bundle.status();
  OpenedModel opened;
  opened.model = std::make_unique<BundleModel>(std::move(bundle).value());
  return opened;
}

Result<std::unique_ptr<ServedModel>> CreateServedSketch(
    const FreshSketchSpec& spec) {
  const Status valid = sketch::ValidateFreshSketchFlags(
      spec.width, spec.depth, spec.capacity, spec.buckets, spec.windows,
      spec.window_items, spec.decay);
  if (!valid.ok()) return valid;
  // No prefix: a fresh daemon has nothing to rank heavy keys from, so a
  // learned count-min starts with an empty oracle set (pure CMS
  // behavior); serve a checkpoint produced by `snapshot --sketch lcms` to
  // keep a trained oracle.
  io::FreshSketchGeometry geometry;
  geometry.width = spec.width;
  geometry.depth = spec.depth;
  geometry.capacity = spec.capacity;
  geometry.buckets = spec.buckets;
  geometry.seed = spec.seed;
  geometry.conservative = spec.conservative;
  auto model = io::VisitSketchKind(
      spec.kind, [&](auto kind) -> Result<std::unique_ptr<ServedModel>> {
        using Kind = decltype(kind);
        using Sketch = typename Kind::Sketch;
        if constexpr (!Kind::kInfo.per_key) {
          return Status::InvalidArgument(
              spec.kind + " answers only the F2 moment and cannot be served");
        } else {
          auto fresh = Kind::MakeFresh(geometry);
          if (!fresh.ok()) return fresh.status();
          if (spec.windows == 0) {
            return std::unique_ptr<ServedModel>(
                std::make_unique<SketchModel<Sketch>>(
                    std::move(fresh).value()));
          }
          static_assert(Kind::kInfo.windowable,
                        "the daemon serves every per-key kind windowed too");
          auto ring = sketch::WindowedSketch<Sketch>::Create(
              fresh.value(), spec.windows, spec.window_items, spec.decay);
          if (!ring.ok()) return ring.status();
          return std::unique_ptr<ServedModel>(
              std::make_unique<WindowedSketchModel<Sketch>>(
                  std::move(ring).value()));
        }
      });
  if (!model.has_value()) {
    return Status::InvalidArgument("unknown sketch kind: " + spec.kind);
  }
  return std::move(*model);
}

}  // namespace opthash::server
