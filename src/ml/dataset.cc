#include "ml/dataset.h"

#include <algorithm>

#include "common/check.h"

namespace opthash::ml {

void Dataset::Add(std::vector<double> features, int label) {
  OPTHASH_CHECK_GE(label, 0);
  if (features_.empty() && num_features_ == 0) {
    num_features_ = features.size();
  }
  OPTHASH_CHECK_EQ(features.size(), num_features_);
  features_.push_back(std::move(features));
  labels_.push_back(label);
}

size_t Dataset::NumClasses() const {
  int max_label = -1;
  for (int label : labels_) max_label = std::max(max_label, label);
  return static_cast<size_t>(max_label + 1);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset subset(num_features_);
  for (size_t index : indices) {
    OPTHASH_CHECK_LT(index, NumExamples());
    subset.Add(features_[index], labels_[index]);
  }
  return subset;
}

std::vector<size_t> Dataset::ClassCounts() const {
  std::vector<size_t> counts(NumClasses(), 0);
  for (int label : labels_) ++counts[static_cast<size_t>(label)];
  return counts;
}

}  // namespace opthash::ml
