#ifndef OPTHASH_ML_LOGISTIC_REGRESSION_H_
#define OPTHASH_ML_LOGISTIC_REGRESSION_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/bytes.h"
#include "ml/dataset.h"
#include "ml/matrix.h"

namespace opthash::ml {

/// \brief Hyperparameters for multinomial logistic regression.
struct LogisticRegressionConfig {
  /// Weight of the ridge (L2) regularization term — the hyperparameter the
  /// paper tunes by 10-fold cross-validation (§6.2).
  double l2 = 1e-3;
  /// Full-batch gradient descent iterations.
  size_t max_iters = 200;
  /// Initial learning rate; halved whenever the loss fails to improve.
  double learning_rate = 0.5;
  /// Stop when the relative loss improvement drops below this.
  double tolerance = 1e-7;
};

/// \brief Multinomial (softmax) logistic regression — the paper's `logreg`.
///
/// Trained by full-batch gradient descent with backtracking on the learning
/// rate. Features are standardized internally (zero mean, unit variance)
/// which makes the conditioning independent of feature scales.
class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(LogisticRegressionConfig config = {});

  void Fit(const Dataset& train) override;
  int Predict(const std::vector<double>& features) const override;

  /// Raw-pointer scalar prediction over num_features doubles — the
  /// allocation-free core Predict and PredictBatch both route through
  /// (standardization scratch is thread-local, logits are never
  /// materialized: argmax of the logits is argmax of the probabilities).
  int PredictRow(const double* features) const;

  /// Allocation-free row loop over the matrix (see Classifier docs).
  void PredictBatch(const Matrix& rows, Span<int> out) const override;
  using Classifier::PredictBatch;

  const char* Name() const override { return "logreg"; }
  size_t NumFeatures() const override { return num_features_; }
  size_t NumClasses() const override { return num_classes_; }

  /// Class probabilities for one example (softmax outputs).
  std::vector<double> PredictProba(const std::vector<double>& features) const;

  /// Regularized negative log-likelihood on a dataset (for tests).
  double Loss(const Dataset& data) const;

  const LogisticRegressionConfig& config() const { return config_; }

  /// Portable text serialization of the fitted model.
  std::string Serialize() const;
  void SerializeTo(std::ostream& out) const;
  static Result<LogisticRegression> Deserialize(const std::string& blob);
  static Result<LogisticRegression> DeserializeFrom(std::istream& in);

  /// Binary snapshot payload (docs/FORMATS.md, section type 16): weights,
  /// biases and standardization vectors as raw little-endian IEEE-754
  /// doubles — exact bit-level round-trip, unlike the text path's
  /// decimal round-trip through setprecision(17).
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds a model from a SerializeBinary payload; fails with
  /// InvalidArgument on truncated/corrupt/mis-versioned bytes or
  /// non-positive feature standard deviations.
  static Result<LogisticRegression> DeserializeBinary(io::ByteReader& in);

 private:
  std::vector<double> Standardize(const std::vector<double>& features) const;
  void ComputeLogits(const std::vector<double>& standardized,
                     std::vector<double>& logits) const;

  LogisticRegressionConfig config_;
  size_t num_classes_ = 0;
  size_t num_features_ = 0;
  Matrix weights_;              // num_classes x num_features
  std::vector<double> biases_;  // num_classes
  std::vector<double> feature_means_;
  std::vector<double> feature_stds_;
  bool fitted_ = false;
};

}  // namespace opthash::ml

#endif  // OPTHASH_ML_LOGISTIC_REGRESSION_H_
