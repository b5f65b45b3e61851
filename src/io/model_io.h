#ifndef OPTHASH_IO_MODEL_IO_H_
#define OPTHASH_IO_MODEL_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/learned_table.h"
#include "core/opt_hash_estimator.h"
#include "io/snapshot.h"
#include "stream/features.h"
#include "stream/trace_io.h"

namespace opthash::io {

/// \brief On-disk encoding of a model bundle.
///
/// kText is the legacy `opthash.bundle.v1` whitespace-token stream (kept
/// readable forever for existing model files); kBinary is the snapshot
/// container of docs/FORMATS.md — versioned, CRC-checked, zero-copy
/// loadable. New deployments should write binary.
enum class SnapshotFormat {
  kText,
  kBinary,
};

const char* SnapshotFormatName(SnapshotFormat format);

/// First token of a text bundle.
inline constexpr char kTextBundleMagic[] = "opthash.bundle.v1";

/// Parses a `--format` flag value ("text" | "binary").
Result<SnapshotFormat> ParseSnapshotFormat(const std::string& name);

/// \brief The full deployable artifact of the paper's workflow (§3): the
/// featurizer that turns query text into the classifier's feature space,
/// plus the trained estimator. Train once offline, Save, ship the file to
/// every stream processor, Load there.
struct ModelBundle {
  stream::BagOfWordsFeaturizer featurizer{500};
  std::optional<core::OptHashEstimator> estimator;
};

/// Writes the bundle in the requested format. The estimator must be
/// present (a bundle without one is a programming error, not bad input).
Status SaveModelBundle(const std::string& path, const ModelBundle& bundle,
                       SnapshotFormat format);

/// Sniffs the leading magic bytes: "OPTHSNAP" = binary snapshot,
/// "opthash.bundle.v1" = legacy text. Anything else is InvalidArgument.
Result<SnapshotFormat> DetectFileFormat(const std::string& path);

/// Loads a bundle in either format (auto-detected), with full CRC
/// verification on the binary path. A classifier that does not fit its
/// bundle — reading other than FeatureDim() features, predicting more
/// classes than there are buckets, or (rf) holding a tree that disagrees
/// with its forest — is InvalidArgument here, never an abort at query
/// time. Opens through the artifact opener (io/artifact.cc), so a sketch
/// checkpoint is InvalidArgument too.
Result<ModelBundle> LoadModelBundle(const std::string& path);

/// \brief Batched query pipeline over a loaded model bundle — the serving
/// read side of the paper's workflow, shared by `opthash_cli query` and
/// the daemon's bundle adapter (key-only queries are blank-text records).
///
/// EstimateBlock answers one block of (id, text) queries through the
/// estimator's lazy batch path (OptHashEstimator::EstimateBatchLazy),
/// routing each row on its own:
///   - a table hit takes its stored bucket and is never featurized (a
///     hit wins before the classifier is consulted, so its features
///     would be dead work);
///   - a blank-text miss takes the blank-payload bucket. The blank
///     payload featurizes to the same row on every call, so the
///     constructor classifies it once, and blank misses never featurize
///     or run the classifier;
///   - a texted miss featurizes straight into the workspace's feature
///     matrix, and the block's texted misses are classified in one batch.
/// All scratch is reused across blocks, so a warm engine performs no
/// heap allocation per block. Answers are element-wise identical to
/// featurizing every query and calling Estimate one by one.
///
/// Holds a reference to the bundle (which must outlive the engine) and
/// mutable scratch: one engine per querying thread.
class BundleQueryEngine {
 public:
  explicit BundleQueryEngine(const ModelBundle& bundle);

  /// out[i] = estimate of queries[i]. queries.size() must equal
  /// out.size(); an empty block is a no-op.
  void EstimateBlock(Span<const stream::TraceRecord> queries,
                     Span<double> out);

 private:
  const ModelBundle& bundle_;
  // Classifier bucket of the blank payload (kClassifyMiss without a
  // classifier, where no miss is ever routed).
  int32_t blank_bucket_;
  std::vector<uint64_t> ids_;
  core::OptHashQueryWorkspace workspace_;
};

/// \brief Zero-copy serving view over a *binary* model bundle.
///
/// FromMapping takes a mapped snapshot, whose payload CRCs are left
/// unchecked, and runs OptHashEstimator's own table probe and bucket
/// gather over the payload's columns in the mapping (a big-endian host
/// decodes them once): no table build, no counter memcpy, restart cost
/// independent of model size. The classifier section is NOT
/// materialized, so only stored-id queries are answerable; unseen-element
/// (classifier) queries need the full LoadModelBundle. Estimates for
/// stored ids are bit-identical to OptHashEstimator::Estimate.
///
/// Move-only; owns its mapping.
class MappedEstimatorView {
 public:
  /// The view over a binary bundle already mapped; `path` names it in
  /// errors.
  static Result<MappedEstimatorView> FromMapping(MappedSnapshot snapshot,
                                                 const std::string& path);

  /// Bucket of a stored id, or -1 when the id is not in the learned
  /// table (this view cannot fall back to the classifier).
  int32_t BucketOf(uint64_t id) const { return table_.Find(id); }

  /// Bucket-average estimate phi_j / c_j for a stored id; 0.0 when the id
  /// is untracked — matching OptHashEstimator::Estimate for items queried
  /// without features.
  double Estimate(uint64_t id) const {
    return counters_.Average(table_.Find(id));
  }

  /// Batched point queries: out[i] = Estimate(ids[i]), allocation-free.
  /// ids.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> ids, Span<double> out) const {
    core::EstimateStoredIds(table_, counters_, ids, out);
  }

  size_t num_buckets() const { return counters_.size; }
  size_t num_stored_ids() const { return table_.size(); }

  /// The learned table and bucket counters, over the mapped columns.
  const core::LearnedTable& table() const { return table_; }
  const core::BucketCounters& bucket_counters() const { return counters_; }

 private:
  MappedEstimatorView() = default;

  MappedSnapshot snapshot_;
  // Big-endian hosts only: the payload columns decoded to host order.
  std::vector<double> decoded_freq_;
  std::vector<double> decoded_count_;
  std::vector<uint64_t> decoded_ids_;
  std::vector<int32_t> decoded_buckets_;
  core::LearnedTable table_;
  core::BucketCounters counters_;
};

}  // namespace opthash::io

#endif  // OPTHASH_IO_MODEL_IO_H_
