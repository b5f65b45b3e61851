#ifndef OPTHASH_ML_DATASET_H_
#define OPTHASH_ML_DATASET_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "ml/matrix.h"

namespace opthash::ml {

/// \brief In-memory supervised classification dataset.
///
/// Rows are dense feature vectors with integer class labels in
/// [0, num_classes). This is the training-set representation for the
/// bucket classifier of §5.2: one row per prefix element, label = learned
/// bucket index.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(size_t num_features) : num_features_(num_features) {}

  /// Appends one example. The first example fixes the feature width.
  void Add(std::vector<double> features, int label);

  size_t NumExamples() const { return labels_.size(); }
  size_t NumFeatures() const { return num_features_; }

  /// Number of distinct label values = max label + 1.
  size_t NumClasses() const;

  const std::vector<double>& Features(size_t index) const {
    return features_[index];
  }
  int Label(size_t index) const { return labels_[index]; }
  const std::vector<int>& labels() const { return labels_; }

  /// Rows selected by index, with repetition allowed.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Per-class example counts (length NumClasses()).
  std::vector<size_t> ClassCounts() const;

 private:
  size_t num_features_ = 0;
  std::vector<std::vector<double>> features_;
  std::vector<int> labels_;
};

/// \brief Interface implemented by all classifiers in this library.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset; may be called once per instance.
  virtual void Fit(const Dataset& train) = 0;

  /// Predicted class for a feature vector.
  virtual int Predict(const std::vector<double>& features) const = 0;

  /// Batched prediction over a row-major feature matrix:
  /// out[i] = predicted class of row i, identical to calling Predict row
  /// by row. Each model implements it with an allocation-free row loop
  /// for the batched query hot path.
  virtual void PredictBatch(const Matrix& rows, Span<int> out) const = 0;

  /// Human-readable model name (for experiment tables).
  virtual const char* Name() const = 0;

  /// Shape of the fitted model: the feature-row length it reads, and the
  /// label range [0, NumClasses()) its predictions lie in. Loaders check
  /// both against the artifact the model is deployed in.
  virtual size_t NumFeatures() const = 0;
  virtual size_t NumClasses() const = 0;

  /// Batch helper.
  std::vector<int> PredictBatch(const Dataset& data) const {
    std::vector<int> predictions(data.NumExamples());
    for (size_t i = 0; i < data.NumExamples(); ++i) {
      predictions[i] = Predict(data.Features(i));
    }
    return predictions;
  }
};

}  // namespace opthash::ml

#endif  // OPTHASH_ML_DATASET_H_
