#include "server/served_model.h"

#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "io/artifact.h"
#include "sketch/estimate_as_double.h"
#include "sketch/windowed_sketch.h"

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
// Read-only serving from a mapped file.

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

  Status SaveSnapshot(const std::string& /*path*/) const override {
    return ReadOnlyError(Kind(), "snapshot rotation");
  }

  uint64_t TotalItems() const override { return view_.total_count(); }

 private:
  io::MappedCountMinView view_;
};

// ---------------------------------------------------------------------------
// Model bundles, fully loaded or mapped.

// Either way a key-only query is answered from the learned table by
// core::EstimateStoredIds, a miss from the bundle's miss bucket
// (io::MissBucket), computed once here; top-k ranks the stored ids. A
// full load also ingests and writes snapshots; a mapped one is read-only.
class BundleModel : public ServedModel {
 public:
  explicit BundleModel(io::ModelBundle bundle)
      : bundle_(std::move(bundle)),
        miss_bucket_(io::MissBucket(bundle_->featurizer,
                                    bundle_->estimator->classifier())) {}
  explicit BundleModel(io::MappedEstimatorView view)
      : view_(std::move(view)), miss_bucket_(view_->miss_bucket()) {}

  const char* Kind() const override {
    return view_ ? "mapped-model-bundle" : "model-bundle";
  }
  bool ReadOnly() const override { return view_.has_value(); }

  Status Ingest(Span<const uint64_t> keys,
                const stream::ShardedIngestConfig& config) override {
    if (view_) return ReadOnlyError(Kind(), "ingest");
    auto stats = bundle_->estimator->Ingest(keys, config);
    return stats.ok() ? Status::OK() : stats.status();
  }

  std::unique_ptr<QueryContext> NewQueryContext() const override {
    return std::make_unique<EmptyContext>();
  }

  void EstimateBatch(QueryContext& /*context*/, Span<const uint64_t> keys,
                     Span<double> out) const override {
    core::EstimateStoredIds(table(), counters(), miss_bucket_, keys, out);
  }

  bool SupportsTopK() const override { return true; }

  // The candidates are the stored ids, the only keys the bundle tells
  // apart, walked in ascending id order so the scan is deterministic.
  // Each answer is the one a query for that id returns; it carries no
  // deterministic per-key bound.
  Status TopK(QueryContext& /*context*/, size_t k,
              std::vector<sketch::HeavyHitter>& out) const override {
    const core::LearnedTable stored = table();
    const core::BucketCounters averages = counters();
    out.clear();
    out.reserve(stored.size());
    for (const auto [id, bucket] : stored) {
      out.push_back({id, averages.Average(bucket), 0.0, false});
    }
    sketch::SortHeavyHitters(out);
    if (out.size() > k) out.resize(k);
    return Status::OK();
  }

  Status SaveSnapshot(const std::string& path) const override {
    if (view_) return ReadOnlyError(Kind(), "snapshot rotation");
    return io::SaveModelBundle(path, *bundle_, io::SnapshotFormat::kBinary);
  }

  uint64_t TotalItems() const override { return 0; }

 private:
  core::LearnedTable table() const {
    return view_ ? view_->table() : bundle_->estimator->table();
  }
  core::BucketCounters counters() const {
    return view_ ? view_->bucket_counters()
                 : bundle_->estimator->bucket_counters();
  }

  std::optional<io::ModelBundle> bundle_;        // Full load.
  std::optional<io::MappedEstimatorView> view_;  // Mapped open.
  int32_t miss_bucket_;
};

Status AmsRejected(const std::string& path) {
  return Status::InvalidArgument(
      path +
      " holds an AMS checkpoint, which answers only the stream-wide F2 "
      "moment — it cannot serve per-key frequency queries (use `restore`)");
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
  // Kinds without a mapped view (text bundles, every sketch but count-min,
  // windowed rings) arrive fully loaded on an mmap request: the daemon
  // comes up degraded (mmap_used false) rather than staying down, the
  // same contract as the offline `restore --mmap` verb.
  return io::VisitArtifact(
      path, use_mmap, [&](auto&& artifact) -> Result<OpenedModel> {
        using Artifact = std::decay_t<decltype(artifact)>;
        OpenedModel opened;
        if constexpr (std::is_same_v<Artifact, io::ModelBundle> ||
                      std::is_same_v<Artifact, io::MappedEstimatorView>) {
          opened.model = std::make_unique<BundleModel>(std::move(artifact));
          opened.mmap_used = io::kIsMappedView<Artifact>;
        } else if constexpr (io::kIsMappedView<Artifact>) {
          opened.model =
              std::make_unique<MappedCountMinModel>(std::move(artifact));
          opened.mmap_used = true;
        } else if constexpr (io::kIsWindowed<Artifact>) {
          opened.model = std::make_unique<
              WindowedSketchModel<typename Artifact::SubSketch>>(
              std::move(artifact));
        } else if constexpr (!io::kSketchKindOf<Artifact>.per_key) {
          return AmsRejected(path);
        } else {
          opened.model =
              std::make_unique<SketchModel<Artifact>>(std::move(artifact));
        }
        return opened;
      });
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
