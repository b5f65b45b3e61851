#ifndef OPTHASH_SERVER_SERVED_MODEL_H_
#define OPTHASH_SERVER_SERVED_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/span.h"
#include "common/status.h"
#include "server/protocol.h"
#include "sketch/top_k.h"
#include "stream/sharded_ingest.h"

namespace opthash::server {

/// \brief What the serving daemon holds behind its socket: one loadable,
/// queryable, (usually) ingestable, checkpointable frequency summary.
///
/// One interface covers every artifact the offline CLI produces — sketch
/// checkpoints (count-min, count-sketch, learned count-min, misra-gries,
/// space-saving), model bundles (featurizer + OptHashEstimator +
/// classifier), and their zero-copy mmap views. AMS checkpoints are
/// rejected at open time: they answer only the stream-wide F2 moment,
/// not per-key queries, so serving one is a configuration error.
///
/// Threading contract (what the server relies on):
///  - Ingest and SaveSnapshot may not run concurrently with each other or
///    with EstimateBatch; the server serializes them behind a writer lock
///    (SaveSnapshot shares the read side with queries).
///  - EstimateBatch is const and safe to call from many threads at once
///    PROVIDED each thread uses its own QueryContext — any per-query
///    mutable scratch lives in the context, never in the model.
class ServedModel {
 public:
  /// Per-session scratch for the batched query path. Every kind today
  /// answers from fixed-size stack chunks, so its context is empty.
  class QueryContext {
   public:
    virtual ~QueryContext() = default;
  };

  virtual ~ServedModel() = default;

  /// Human-readable artifact kind ("count-min", "model-bundle", ...).
  virtual const char* Kind() const = 0;

  /// True for mmap-backed views: queries only; Ingest and SaveSnapshot
  /// fail with FailedPrecondition.
  virtual bool ReadOnly() const = 0;

  /// Ingests one block of arrivals (unit increments) through the sharded
  /// ingestion engine; `config.num_threads == 1` is the plain sequential
  /// UpdateBatch path.
  virtual Status Ingest(Span<const uint64_t> keys,
                        const stream::ShardedIngestConfig& config) = 0;

  virtual std::unique_ptr<QueryContext> NewQueryContext() const = 0;

  /// out[i] = frequency estimate of keys[i]. keys.size() must equal
  /// out.size(). Answers are identical to the offline `restore` verb over
  /// the same artifact, in either open mode; a bundle answers a
  /// learned-table miss from its miss bucket (io::MissBucket), like a
  /// blank-text row of the offline `query` verb.
  virtual void EstimateBatch(QueryContext& context, Span<const uint64_t> keys,
                             Span<double> out) const = 0;

  /// True when this artifact kind can answer TopK — the capability flag
  /// the server checks before dispatching a kTopK frame, mirroring the
  /// ReadOnly/mmap capability pattern. Heavy-hitter summaries (mg, ss),
  /// the learned count-min and model bundles report their internal
  /// candidate tables; plain cms/countsketch artifacts store no ids and
  /// cannot (the offline CLI rejects them the same way).
  virtual bool SupportsTopK() const { return false; }

  /// The k heaviest keys of the artifact, heaviest first, in the shared
  /// HeavyHitter vocabulary (canonical order: estimate desc, id asc).
  /// Same threading contract as EstimateBatch: const, concurrent-safe
  /// with per-thread contexts. Default: FailedPrecondition naming the
  /// kinds that support the verb.
  virtual Status TopK(QueryContext& context, size_t k,
                      std::vector<sketch::HeavyHitter>& out) const;

  /// True when the artifact counts over a sliding window (a windowed
  /// ring) — the capability flag behind the kWindowStats verb, same
  /// pattern as SupportsTopK.
  virtual bool SupportsWindowStats() const { return false; }

  /// Ring position + per-window arrival counts (oldest window first).
  /// Default: FailedPrecondition explaining how to get a windowed model.
  virtual Status WindowStats(WindowStatsSnapshot& out) const;

  /// Writes a checkpoint loadable by OpenServedModel (and by the offline
  /// `restore` verb) to `path`. The rotator wraps this in
  /// write-temp-then-rename; this method just writes the file.
  virtual Status SaveSnapshot(const std::string& path) const = 0;

  /// Model-lifetime arrivals for kinds that track them (count-min,
  /// misra-gries, space-saving — survives checkpoint/restore); 0 when the
  /// artifact has no such counter.
  virtual uint64_t TotalItems() const = 0;
};

/// OpenServedModel's result: the model plus whether the zero-copy mmap
/// path was actually used (callers asked for mmap on an unsupported kind
/// get a full load plus `mmap_used == false`, mirroring the `restore
/// --mmap` fallback contract).
struct OpenedModel {
  std::unique_ptr<ServedModel> model;
  bool mmap_used = false;
};

/// Loads any CLI-produced artifact for serving: text or binary model
/// bundles, or single-sketch snapshot containers, opened once through
/// io::VisitArtifact. With `use_mmap`, kinds that support zero-copy
/// serving (count-min checkpoints, binary model bundles) are mapped
/// read-only; unsupported kinds fall back to a full load (reported via
/// OpenedModel::mmap_used).
Result<OpenedModel> OpenServedModel(const std::string& path, bool use_mmap);

/// Geometry of a fresh, empty sketch to serve (daemon started with
/// --sketch instead of --in). Mirrors the `snapshot` verb's flags.
/// With `windows > 0` the sketch is wrapped in a WindowedSketch ring of
/// that many windows advancing every `window_items` arrivals;
/// `decay < 1.0` additionally turns on exponential decay at query time.
struct FreshSketchSpec {
  std::string kind = "cms";  // cms|countsketch|lcms|mg|ss
  size_t width = 1024;
  size_t depth = 4;
  size_t capacity = 256;
  size_t buckets = 1024;  // lcms budget (served with an empty oracle set).
  uint64_t seed = 1;
  bool conservative = false;
  size_t windows = 0;        // 0 = plain lifetime counting (no ring).
  uint64_t window_items = 0; // Arrivals per window; required when windowed.
  double decay = 1.0;        // Per-window geometric weight, in (0, 1].
};

Result<std::unique_ptr<ServedModel>> CreateServedSketch(
    const FreshSketchSpec& spec);

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_SERVED_MODEL_H_
