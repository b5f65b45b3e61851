#ifndef OPTHASH_ML_DECISION_TREE_H_
#define OPTHASH_ML_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "io/bytes.h"
#include "ml/dataset.h"

namespace opthash::ml {

/// \brief Hyperparameters for the CART classifier.
struct DecisionTreeConfig {
  /// Maximum tree depth (root = depth 0). The paper tunes this (§6.2).
  size_t max_depth = 16;
  /// A split must reduce weighted gini impurity by at least this much —
  /// the second hyperparameter the paper tunes for `cart`.
  double min_impurity_decrease = 0.0;
  /// Minimum examples required in each child.
  size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 means all features.
  /// Random forests pass sqrt(p) here.
  size_t max_features = 0;
  /// Seed for the feature subsampling (only used when max_features > 0).
  uint64_t seed = 7;
};

/// \brief Column-major sparse (CSC) copy of a dataset's feature matrix:
/// for each column, the rows whose value is not zero, ascending, with
/// their values (-0.0 counts as zero). Split search reads a column's
/// nonzeros from here; a forest builds one per fit and shares it across
/// its trees.
class FeatureColumns {
 public:
  explicit FeatureColumns(const Dataset& data);

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return starts_.size() - 1; }

  /// Rows holding a nonzero in `column`, and those nonzeros, in step.
  Span<const uint32_t> Rows(size_t column) const {
    return {rows_.data() + starts_[column],
            starts_[column + 1] - starts_[column]};
  }
  Span<const double> Values(size_t column) const {
    return {values_.data() + starts_[column],
            starts_[column + 1] - starts_[column]};
  }

 private:
  size_t num_rows_ = 0;
  std::vector<size_t> starts_;  // NumColumns() + 1 offsets into the columns.
  std::vector<uint32_t> rows_;
  std::vector<double> values_;
};

/// \brief CART decision tree (Breiman et al. 1984, ref [43]) — the paper's
/// `cart` classifier. Axis-aligned splits chosen by maximal gini impurity
/// decrease over every threshold between two distinct values of a
/// candidate feature. The search at a node visits only the nonzeros of
/// each candidate column that fall in the node, with their row
/// multiplicities, and sorts only those: the zeros form one group between
/// the negative and the positive values, and a column with no nonzeros in
/// the node is constant there and skipped. Thresholds fall only between
/// distinct values, so rows with equal feature values are never split
/// apart and the fitted tree does not depend on the order of the training
/// rows. Feature values must not be NaN.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  void Fit(const Dataset& train) override;

  /// Fits on the sample that holds row i of `train` multiplicity[i] times
  /// (a bootstrap sample), reading the features through `columns`, which
  /// must be built from `train`. The tree is the one Fit returns on that
  /// sample copied out with Dataset::Subset; Fit is this with every
  /// multiplicity 1. The class count is one past the largest label the
  /// sample holds.
  void FitSample(const Dataset& train, const FeatureColumns& columns,
                 const std::vector<uint32_t>& multiplicity);

  int Predict(const std::vector<double>& features) const override;

  /// Raw-pointer scalar prediction over num_features doubles: one root-to-
  /// leaf walk, never allocating. Predict and PredictBatch route through
  /// it; the caller guarantees the row length (unchecked here).
  int PredictRow(const double* features) const;

  /// Allocation-free row loop over the matrix (see Classifier docs).
  void PredictBatch(const Matrix& rows, Span<int> out) const override;
  using Classifier::PredictBatch;

  const char* Name() const override { return "cart"; }
  size_t NumFeatures() const override { return num_features_; }
  size_t NumClasses() const override { return num_classes_; }

  /// Number of nodes in the fitted tree (leaves + internal).
  size_t NodeCount() const { return nodes_.size(); }

  /// Depth of the fitted tree.
  size_t Depth() const;

  /// Total gini decrease attributed to each feature across all splits —
  /// the impurity-based feature importance (normalized to sum to 1). The
  /// paper uses importances to interpret the search-query model (§7.4).
  std::vector<double> FeatureImportances() const;

  const DecisionTreeConfig& config() const { return config_; }

  /// Serializes the fitted tree as a portable whitespace-token text blob
  /// (train offline, deploy the scheme — see core/serialization docs).
  std::string Serialize() const;
  void SerializeTo(std::ostream& out) const;

  /// Reconstructs a tree from Serialize() output.
  static Result<DecisionTree> Deserialize(const std::string& blob);
  static Result<DecisionTree> DeserializeFrom(std::istream& in);

  /// Binary snapshot payload (docs/FORMATS.md, section type 17): header +
  /// fixed 48-byte little-endian node records. Exactly the state the text
  /// format carries (structure, thresholds at full double precision,
  /// importances bookkeeping); fitted-ness is implied — serializing an
  /// unfitted tree is a programming error, like the text path.
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds a tree from a SerializeBinary payload; same node-index
  /// range checks as the text reader, returning InvalidArgument (never
  /// crashing) on truncated/corrupt/mis-versioned bytes.
  static Result<DecisionTree> DeserializeBinary(io::ByteReader& in);

 private:
  struct Node {
    // Internal node fields (valid when is_leaf == false).
    size_t feature = 0;
    double threshold = 0.0;   // Goes left if x[feature] <= threshold.
    int32_t left = -1;
    int32_t right = -1;
    // Leaf field.
    int label = 0;
    bool is_leaf = true;
    // Bookkeeping for importances.
    double impurity_decrease = 0.0;
    size_t num_samples = 0;
  };

  // The training sample and the split-search scratch of one fit.
  struct FitState;

  int32_t BuildNode(FitState& state, std::vector<uint32_t>& rows,
                    size_t depth);

  DecisionTreeConfig config_;
  size_t num_features_ = 0;
  size_t num_classes_ = 0;
  std::vector<Node> nodes_;
  bool fitted_ = false;
};

}  // namespace opthash::ml

#endif  // OPTHASH_ML_DECISION_TREE_H_
