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

/// The bucket a key-only query that misses the learned table answers
/// from, in every verb and open mode. The wire protocol carries keys
/// only, so such a query is a blank-text one: its answer is the bucket
/// `classifier` assigns the blank payload, whose feature row is all
/// zeros, or -1 without a classifier, which answers 0. A constant of the
/// bundle: every reader computes it once, when it opens the bundle, and
/// answers key-only queries from it (core::EstimateStoredIds, and
/// BundleQueryEngine for a blank-text row).
int32_t MissBucket(const stream::BagOfWordsFeaturizer& featurizer,
                   const ml::Classifier* classifier);

namespace internal {

/// A binary bundle's featurizer, parsed in full, and the payload of its
/// estimator section: where both open modes start. InvalidArgument naming
/// `path` when a section is missing or the featurizer is malformed.
struct BinaryBundleSections {
  stream::BagOfWordsFeaturizer featurizer;
  Span<const uint8_t> estimator;
};
Result<BinaryBundleSections> ReadBinaryBundleSections(
    const SnapshotView& view, const std::string& path);

/// InvalidArgument naming `path` unless `classifier` (nullptr: none)
/// reads the rows `featurizer` writes. Every open mode checks it, so a
/// mismatch is a load error, never an abort at query time.
Status CheckClassifierFits(const stream::BagOfWordsFeaturizer& featurizer,
                           const ml::Classifier* classifier,
                           const std::string& path);

}  // namespace internal

/// \brief Batched query pipeline over a loaded model bundle: the read
/// side of the offline `query` verb.
///
/// EstimateBlock answers one block of (id, text) queries. The block's ids
/// probe the learned table in one batch (core::LearnedTable::FindBatch):
/// a hit is answered from its stored bucket, a blank-text miss from the
/// bundle's MissBucket, as core::EstimateStoredIds answers a key-only
/// query. Only the texted misses are featurized, straight into the
/// workspace's feature matrix, classified in one batch, and answered from
/// their own buckets. A table hit wins before the classifier is
/// consulted, so its text is never featurized. All scratch is reused
/// across blocks, so a warm engine performs no heap allocation per block.
/// Answers are element-wise identical to featurizing every query and
/// calling Estimate one by one.
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
  int32_t miss_bucket_;
  std::vector<uint64_t> ids_;
  core::OptHashQueryWorkspace workspace_;
};

/// \brief Zero-copy serving view over a *binary* model bundle.
///
/// FromMapping takes a mapped snapshot, whose payload CRCs are left
/// unchecked, and reads the learned table and bucket counters in place
/// from the payload's columns in the mapping (a big-endian host decodes
/// them once): no table build, no counter copy. It parses the featurizer
/// and the classifier as the full load does and rejects the same
/// mismatches, computes the bundle's MissBucket, and then drops both. So
/// the view answers every key-only query exactly like the full load, and
/// its estimates are bit-identical to a blank-text query of
/// OptHashEstimator::Estimate.
///
/// Move-only; owns its mapping.
class MappedEstimatorView {
 public:
  /// The view over a binary bundle already mapped; `path` names it in
  /// errors.
  static Result<MappedEstimatorView> FromMapping(MappedSnapshot snapshot,
                                                 const std::string& path);

  /// Bucket a key-only query for `id` reads: its stored bucket, or the
  /// miss bucket (-1 without a classifier).
  int32_t BucketOf(uint64_t id) const {
    const int32_t bucket = table_.Find(id);
    return bucket >= 0 ? bucket : miss_bucket_;
  }

  /// Bucket-average estimate phi_j / c_j of BucketOf(id); 0.0 for -1.
  double Estimate(uint64_t id) const { return counters_.Average(BucketOf(id)); }

  /// Batched point queries: out[i] = Estimate(ids[i]), allocation-free.
  /// ids.size() must equal out.size().
  void EstimateBatch(Span<const uint64_t> ids, Span<double> out) const {
    core::EstimateStoredIds(table_, counters_, miss_bucket_, ids, out);
  }

  size_t num_buckets() const { return counters_.size; }
  size_t num_stored_ids() const { return table_.size(); }

  /// The learned table and bucket counters, over the mapped columns, and
  /// the bundle's MissBucket.
  const core::LearnedTable& table() const { return table_; }
  const core::BucketCounters& bucket_counters() const { return counters_; }
  int32_t miss_bucket() const { return miss_bucket_; }

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
  int32_t miss_bucket_ = -1;
};

}  // namespace opthash::io

#endif  // OPTHASH_IO_MODEL_IO_H_
