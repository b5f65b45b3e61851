#ifndef OPTHASH_ML_RANDOM_FOREST_H_
#define OPTHASH_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/bytes.h"
#include "ml/decision_tree.h"

namespace opthash::ml {

/// \brief Hyperparameters for the random forest.
struct RandomForestConfig {
  size_t num_trees = 30;
  /// Per-tree depth cap — tuned by the paper for `rf` (§6.2).
  size_t max_depth = 16;
  /// Features per split — the paper's other tuned `rf` hyperparameter;
  /// 0 means floor(sqrt(p)).
  size_t max_features = 0;
  size_t min_samples_leaf = 1;
  uint64_t seed = 11;
};

/// \brief Random forest (Breiman 2001, ref [44]) — the paper's `rf`.
///
/// Bagging over CART trees with per-split feature subsampling; prediction
/// is the majority vote. The paper found `rf` to give the best accuracy /
/// training-time trade-off on the query-log task (§7.3).
class RandomForest : public Classifier {
 public:
  explicit RandomForest(RandomForestConfig config = {});

  void Fit(const Dataset& train) override;
  int Predict(const std::vector<double>& features) const override;

  /// Raw-pointer scalar prediction over num_features doubles: majority
  /// vote accumulated in thread-local scratch, never allocating in steady
  /// state. Predict and PredictBatch route through it.
  int PredictRow(const double* features) const;

  /// Allocation-free row loop over the matrix (see Classifier docs).
  void PredictBatch(const Matrix& rows, Span<int> out) const override;
  using Classifier::PredictBatch;

  const char* Name() const override { return "rf"; }
  size_t NumFeatures() const override { return num_features_; }
  size_t NumClasses() const override { return num_classes_; }

  /// Average of per-tree impurity importances.
  std::vector<double> FeatureImportances() const;

  size_t NumTrees() const { return trees_.size(); }
  const RandomForestConfig& config() const { return config_; }

  /// Portable text serialization of the fitted ensemble.
  std::string Serialize() const;
  void SerializeTo(std::ostream& out) const;
  static Result<RandomForest> Deserialize(const std::string& blob);
  static Result<RandomForest> DeserializeFrom(std::istream& in);

  /// Binary snapshot payload (docs/FORMATS.md, section type 18): ensemble
  /// header followed by each tree's SerializeBinary payload inline.
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds an ensemble from a SerializeBinary payload; fails with
  /// InvalidArgument on truncated/corrupt/mis-versioned bytes.
  static Result<RandomForest> DeserializeBinary(io::ByteReader& in);

 private:
  RandomForestConfig config_;
  size_t num_classes_ = 0;
  size_t num_features_ = 0;
  std::vector<DecisionTree> trees_;
  bool fitted_ = false;
};

}  // namespace opthash::ml

#endif  // OPTHASH_ML_RANDOM_FOREST_H_
