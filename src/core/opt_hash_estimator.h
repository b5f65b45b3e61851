#ifndef OPTHASH_CORE_OPT_HASH_ESTIMATOR_H_
#define OPTHASH_CORE_OPT_HASH_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "core/frequency_estimator.h"
#include "core/learned_table.h"
#include "io/bytes.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "opt/bcd.h"
#include "opt/dp.h"
#include "opt/exact.h"
#include "stream/sharded_ingest.h"

namespace opthash::core {

/// \brief Which optimization algorithm learns the hashing scheme (§4).
enum class SolverKind {
  kBcd,    // Algorithm 1 (block coordinate descent).
  kDp,     // §4.4 dynamic programming (lambda = 1).
  kExact,  // Branch-and-bound (the paper's `milp` role).
};

/// \brief Which classifier hashes unseen elements (§5.2).
enum class ClassifierKind {
  kNone,  // Unseen elements estimate 0 (hash-table-only mode).
  kLogisticRegression,
  kCart,
  kRandomForest,
};

const char* SolverKindName(SolverKind kind);
const char* ClassifierKindName(ClassifierKind kind);

/// \brief One element observed in the stream prefix S0: the training input
/// of the two-phase learning procedure (§3).
struct PrefixElement {
  uint64_t id = 0;
  double frequency = 0.0;          // f0_u, occurrences within S0.
  std::vector<double> features;    // x_u.
};

/// \brief Full configuration of the opt-hash estimator.
struct OptHashConfig {
  /// Overall memory budget b_total in 4-byte buckets. Split between b
  /// aggregation buckets and n stored element IDs via §7.3's ratio c = b/n:
  /// n = b_total/(1+c), b = b_total - n.
  size_t total_buckets = 256;
  /// The ratio c (the paper examines c in {0.03, 0.3}).
  double id_ratio = 0.3;
  /// Objective trade-off lambda (§4.1); the real-data experiments use 1.
  double lambda = 1.0;

  SolverKind solver = SolverKind::kBcd;
  opt::BcdConfig bcd;
  opt::DpConfig dp;
  opt::ExactConfig exact;

  ClassifierKind classifier = ClassifierKind::kRandomForest;
  ml::LogisticRegressionConfig logreg;
  ml::DecisionTreeConfig cart;
  ml::RandomForestConfig rf;

  /// Seed for prefix subsampling.
  uint64_t seed = 1;

  Status Validate() const;
};

/// \brief Diagnostics captured while training an OptHashEstimator.
struct OptHashTrainingInfo {
  size_t num_prefix_elements = 0;   // Distinct elements offered.
  size_t num_sampled_elements = 0;  // n: elements whose IDs are stored.
  size_t num_buckets = 0;           // b.
  opt::SolveResult solve_result;    // Learned-scheme optimization outcome.
  double classifier_train_seconds = 0.0;
  double total_train_seconds = 0.0;
};

/// \brief Reusable scratch for the batched query path (two-pass
/// route-then-gather, see OptHashEstimator::EstimateBatch). One workspace
/// per querying thread; every call rewrites the contents, and after a
/// warm-up call with the largest block size the workspace never
/// heap-allocates again.
struct OptHashQueryWorkspace {
  std::vector<int32_t> buckets;  // Routed bucket per item (-1 = untracked).
  std::vector<size_t> pending;   // Item indices routed to the classifier.
  ml::Matrix features;           // Gathered feature rows of pending items.
  std::vector<int> predictions;  // Classifier output for pending items.
};

/// \brief The paper's proposed estimator (`opt-hash`).
///
/// Two-phase learning (§3): (1) the prefix elements — subsampled with
/// probability proportional to frequency when the ID budget is smaller than
/// the prefix support (§7.3) — are near-optimally assigned to buckets by
/// the configured solver; (2) a classifier maps features to buckets for
/// elements that never appeared in the prefix.
///
/// Stream processing (static mode, §5 / Fig. 9c): an arrival whose ID is in
/// the learned hash table increments its bucket's aggregated frequency;
/// other arrivals are ignored. A count query returns the *average*
/// frequency phi_j / c_j of the element's bucket, located via the hash
/// table for stored IDs and via the classifier otherwise.
class OptHashEstimator : public FrequencyEstimator {
 public:
  /// Learns the hashing scheme and classifier from the observed prefix.
  static Result<OptHashEstimator> Train(
      const OptHashConfig& config, const std::vector<PrefixElement>& prefix);

  void Update(const stream::StreamItem& item) override;

  /// Shard-friendly hot path for the sharded ingestion engine
  /// (stream/sharded_ingest.h): routes a block of arrival ids through the
  /// learned table, accumulating the bucket increments into the
  /// caller-owned `bucket_deltas` (size num_buckets()) instead of the
  /// estimator's own counters. Because stream processing only *adds* to
  /// bucket frequencies through a read-only table, per-worker delta
  /// arrays merged via ApplyBucketDeltas are exactly equivalent to
  /// calling Update once per id — this is the key-partitioned/bucketed
  /// analogue of the linear sketches' replica merge.
  void AccumulateUpdates(Span<const uint64_t> ids,
                         std::vector<double>& bucket_deltas) const;

  /// Folds a delta array produced by AccumulateUpdates into the bucket
  /// counters. Fails with InvalidArgument unless deltas.size() ==
  /// num_buckets().
  Status ApplyBucketDeltas(const std::vector<double>& deltas);

  /// Ingests a block of arrival ids through the sharded ingestion engine:
  /// each worker accumulates into a private delta array and the arrays
  /// fold back in worker order, exactly a sequential Update loop at any
  /// thread count. The `apply` verb and the daemon's bundle model both
  /// ingest here.
  Result<stream::IngestStats> Ingest(Span<const uint64_t> ids,
                                     const stream::ShardedIngestConfig& config);

  /// Scalar point query. Routes through the batch machinery with
  /// batch = 1 (thread-local workspace), so the learned path performs no
  /// heap allocation per query in steady state.
  double Estimate(const stream::StreamItem& item) const override;

  /// Batched point queries with a thread-local workspace; see the
  /// workspace overload below for the mechanics.
  void EstimateBatch(Span<const stream::StreamItem> items,
                     Span<double> out) const override;

  /// Batched point queries, two passes over the block:
  ///   1. route — every id probes the learned table back to back;
  ///      the misses' feature rows are gathered into ws.features and
  ///      classified in one PredictBatch call (RouteBatch);
  ///   2. gather — bucket counters are read back to back into out.
  /// Element-wise identical to a loop of Estimate; allocation-free once
  /// `ws` has warmed up. items.size() must equal out.size().
  void EstimateBatch(Span<const stream::StreamItem> items, Span<double> out,
                     OptHashQueryWorkspace& ws) const;

  /// What a `route_miss` callback of EstimateBatchLazy returns for a miss
  /// only its features can route.
  static constexpr int32_t kClassifyMiss = -2;

  /// Batched point queries with *lazy* featurization, for callers that
  /// derive features from query payloads on demand (io::BundleQueryEngine
  /// featurizes query text). The learned table routes every id first, so
  /// each table probe happens once and resolved ids never pay
  /// featurization. Each id the table cannot resolve is then routed on
  /// its own row by `route_miss(i)`, invoked exactly once per such id:
  ///   - a bucket in [0, num_buckets()) is taken as is — the caller
  ///     already knows where the query classifies (BundleQueryEngine's
  ///     precomputed blank-payload bucket);
  ///   - kClassifyMiss defers the row to the classifier:
  ///     `fill_features(i, row)` writes that query's `feature_dim` doubles
  ///     straight into the workspace's gathered feature matrix, and all
  ///     deferred rows are classified in one PredictBatch call.
  /// Without a classifier, unresolved ids estimate 0 and neither callback
  /// is invoked. Answers are element-wise identical to EstimateBatch over
  /// items carrying the same features, provided every bucket `route_miss`
  /// returns is ClassifierBucket of that query's features.
  template <typename RouteMissFn, typename FeatureFn>
  void EstimateBatchLazy(Span<const uint64_t> ids, size_t feature_dim,
                         Span<double> out, OptHashQueryWorkspace& ws,
                         RouteMissFn route_miss,
                         FeatureFn fill_features) const {
    OPTHASH_CHECK_EQ(ids.size(), out.size());
    RouteTableOnly(ids, ws);
    // Misses the caller routes take their bucket now; the rest stay in
    // ws.pending, compacted in place, for the featurize-and-classify pass.
    size_t deferred = 0;
    for (size_t p = 0; p < ws.pending.size(); ++p) {
      const size_t i = ws.pending[p];
      const int32_t bucket = route_miss(i);
      if (bucket == kClassifyMiss) {
        ws.pending[deferred++] = i;
      } else {
        RouteToBucket(ws, i, bucket);
      }
    }
    ws.pending.resize(deferred);
    if (!ws.pending.empty()) {
      ws.features.Reshape(ws.pending.size(), feature_dim);
      for (size_t p = 0; p < ws.pending.size(); ++p) {
        fill_features(ws.pending[p],
                      Span<double>(ws.features.Row(p), feature_dim));
      }
      ClassifyPendingRows(ws);
    }
    bucket_counters().GatherAverages(ws.buckets, out);
  }

  size_t MemoryBuckets() const override;
  const char* Name() const override { return "opt-hash"; }

  /// Bucket the item routes to: hash table first, classifier fallback;
  /// -1 when neither applies (no classifier and unseen ID).
  int32_t BucketOf(const stream::StreamItem& item) const;

  /// Bucket the classifier assigns to a feature row — the route of an
  /// unseen id carrying these features; -1 without a classifier.
  int32_t ClassifierBucket(const std::vector<double>& features) const;

  /// Pass 1 of the batched query path: fills ws.buckets (resized to
  /// items.size()) with BucketOf of every item, batching the table probes
  /// and the classifier predictions. Exposed so the adaptive extension
  /// shares the routing machinery.
  void RouteBatch(Span<const stream::StreamItem> items,
                  OptHashQueryWorkspace& ws) const;

  size_t num_buckets() const { return bucket_freq_.size(); }
  size_t num_stored_ids() const { return table_ids_.size(); }
  const OptHashTrainingInfo& training_info() const { return training_info_; }
  const ml::Classifier* classifier() const { return classifier_.get(); }

  /// Aggregated frequency and element count of a bucket (phi_j, c_j).
  double BucketFrequency(size_t j) const { return bucket_freq_.at(j); }
  double BucketCount(size_t j) const { return bucket_count_.at(j); }

  /// The learned table (id -> bucket), a view over this estimator's
  /// ascending id and bucket columns.
  LearnedTable table() const {
    return {table_ids_.data(), table_buckets_.data(), table_ids_.size()};
  }

  /// The bucket counters (phi_j, c_j) as a view.
  BucketCounters bucket_counters() const {
    return {bucket_freq_.data(), bucket_count_.data(), bucket_freq_.size()};
  }

  /// Serializes the deployed state (hash table, bucket counters, fitted
  /// classifier) as a portable text blob — train offline, ship the scheme
  /// to the stream processor, Deserialize there. Training diagnostics are
  /// not preserved.
  std::string Serialize() const;
  static Result<OptHashEstimator> Deserialize(const std::string& blob);

  /// Binary snapshot payload (docs/FORMATS.md, section type 32): bucket
  /// counter arrays and the learned table's ascending id and bucket
  /// columns at 8-aligned payload offsets — the layout
  /// io::MappedEstimatorView searches in place — followed
  /// by the classifier's length-prefixed binary payload. Bit-exact
  /// round-trip of doubles (the text path goes through decimal).
  /// Must start at an 8-aligned writer offset (a fresh ByteWriter does);
  /// snapshot sections always satisfy this on disk.
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds an estimator from a SerializeBinary payload; fails with
  /// InvalidArgument on truncated/corrupt/mis-versioned bytes, bucket
  /// indices out of range, or a malformed embedded classifier. Training
  /// diagnostics are not preserved (same contract as the text path).
  static Result<OptHashEstimator> DeserializeBinary(io::ByteReader& in);

 private:
  OptHashEstimator() = default;

  // Shared stages of the batched query paths (see EstimateBatch docs).
  // RouteTableOnly probes the table for every id, recording classifier
  // candidates in ws.pending (only when a classifier exists);
  // ClassifyPendingRows expects ws.features filled with one row per
  // pending index and resolves them through one PredictBatch call;
  // RouteToBucket records a classifier-side bucket for item i after
  // checking it names one of this estimator's buckets.
  void RouteTableOnly(Span<const uint64_t> ids,
                      OptHashQueryWorkspace& ws) const;
  void ClassifyPendingRows(OptHashQueryWorkspace& ws) const;
  void RouteToBucket(OptHashQueryWorkspace& ws, size_t i, int bucket) const;

  // Load-time guard shared by both deserializers: the classifier's labels
  // index buckets, so it must not predict more classes than there are.
  Status CheckClassifierFitsBuckets() const;

  // The learned table's columns: ids strictly ascending, buckets parallel.
  std::vector<uint64_t> table_ids_;
  std::vector<int32_t> table_buckets_;
  std::vector<double> bucket_freq_;   // phi_j
  std::vector<double> bucket_count_;  // c_j
  std::unique_ptr<ml::Classifier> classifier_;
  ClassifierKind classifier_kind_ = ClassifierKind::kNone;
  OptHashTrainingInfo training_info_;
};

}  // namespace opthash::core

#endif  // OPTHASH_CORE_OPT_HASH_ESTIMATOR_H_
