#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace opthash::ml {

namespace {

// Gini impurity of a label histogram with `total` examples.
double Gini(const std::vector<size_t>& counts, size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

int MajorityLabel(const std::vector<size_t>& counts) {
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {
  OPTHASH_CHECK_GE(config_.min_samples_leaf, 1u);
}

void DecisionTree::Fit(const Dataset& train) {
  OPTHASH_CHECK_GT(train.NumExamples(), 0u);
  num_features_ = train.NumFeatures();
  num_classes_ = std::max<size_t>(train.NumClasses(), 1);
  nodes_.clear();
  std::vector<size_t> indices(train.NumExamples());
  std::iota(indices.begin(), indices.end(), size_t{0});
  Rng rng(config_.seed);
  BuildNode(train, indices, /*depth=*/0, rng);
  fitted_ = true;
}

int32_t DecisionTree::BuildNode(const Dataset& train,
                                std::vector<size_t>& indices, size_t depth,
                                Rng& rng) {
  const size_t n = indices.size();
  std::vector<size_t> counts(num_classes_, 0);
  for (size_t index : indices) {
    ++counts[static_cast<size_t>(train.Label(index))];
  }
  const double node_gini = Gini(counts, n);

  const auto node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].label = MajorityLabel(counts);
  nodes_[node_id].num_samples = n;

  const bool pure = node_gini <= 1e-12;
  if (pure || depth >= config_.max_depth || n < 2 * config_.min_samples_leaf) {
    return node_id;
  }

  // Candidate features: all, or a uniform sample of max_features for forests.
  std::vector<size_t> candidate_features;
  if (config_.max_features == 0 || config_.max_features >= num_features_) {
    candidate_features.resize(num_features_);
    std::iota(candidate_features.begin(), candidate_features.end(), size_t{0});
  } else {
    std::vector<size_t> all(num_features_);
    std::iota(all.begin(), all.end(), size_t{0});
    rng.Shuffle(all);
    candidate_features.assign(
        all.begin(), all.begin() + static_cast<long>(config_.max_features));
  }

  // Exhaustive threshold scan per candidate feature.
  double best_decrease = config_.min_impurity_decrease;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  bool found = false;

  std::vector<std::pair<double, int>> values(n);  // (feature value, label)
  std::vector<size_t> left_counts(num_classes_);
  std::vector<size_t> right_counts(num_classes_);
  for (size_t feature : candidate_features) {
    const double first = train.Features(indices[0])[feature];
    bool constant = true;
    for (size_t i = 0; i < n; ++i) {
      const double value = train.Features(indices[i])[feature];
      constant = constant && value == first;
      values[i] = {value, train.Label(indices[i])};
    }
    // A constant column has no boundary to score.
    if (constant) continue;
    // Only boundaries between distinct values are scored, and there the
    // left histogram holds every row at or below the value, so the order
    // of rows sharing a value is irrelevant: sort by value alone.
    std::sort(values.begin(), values.end(),
              [](const std::pair<double, int>& a,
                 const std::pair<double, int>& b) {
                return a.first < b.first;
              });

    std::fill(left_counts.begin(), left_counts.end(), 0);
    size_t left_total = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      ++left_counts[static_cast<size_t>(values[i].second)];
      ++left_total;
      if (values[i].first == values[i + 1].first) continue;
      const size_t right_total = n - left_total;
      if (left_total < config_.min_samples_leaf ||
          right_total < config_.min_samples_leaf) {
        continue;
      }
      for (size_t c = 0; c < num_classes_; ++c) {
        right_counts[c] = counts[c] - left_counts[c];
      }
      const double weighted_child_gini =
          (static_cast<double>(left_total) * Gini(left_counts, left_total) +
           static_cast<double>(right_total) * Gini(right_counts, right_total)) /
          static_cast<double>(n);
      const double decrease = node_gini - weighted_child_gini;
      if (decrease > best_decrease) {
        best_decrease = decrease;
        best_feature = feature;
        best_threshold = 0.5 * (values[i].first + values[i + 1].first);
        found = true;
      }
    }
  }

  if (!found) return node_id;

  std::vector<size_t> left_indices;
  std::vector<size_t> right_indices;
  left_indices.reserve(n);
  right_indices.reserve(n);
  for (size_t index : indices) {
    if (train.Features(index)[best_feature] <= best_threshold) {
      left_indices.push_back(index);
    } else {
      right_indices.push_back(index);
    }
  }
  OPTHASH_CHECK(!left_indices.empty() && !right_indices.empty());
  indices.clear();
  indices.shrink_to_fit();

  const int32_t left_id = BuildNode(train, left_indices, depth + 1, rng);
  const int32_t right_id = BuildNode(train, right_indices, depth + 1, rng);

  Node& node = nodes_[node_id];
  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left_id;
  node.right = right_id;
  node.impurity_decrease = best_decrease * static_cast<double>(n);
  return node_id;
}

int DecisionTree::Predict(const std::vector<double>& features) const {
  OPTHASH_CHECK_MSG(fitted_, "Predict before Fit");
  OPTHASH_CHECK_EQ(features.size(), num_features_);
  return PredictRow(features.data());
}

int DecisionTree::PredictRow(const double* features) const {
  int32_t node_id = 0;
  while (!nodes_[node_id].is_leaf) {
    const Node& node = nodes_[node_id];
    node_id = features[node.feature] <= node.threshold ? node.left : node.right;
  }
  return nodes_[node_id].label;
}

void DecisionTree::PredictBatch(const Matrix& rows, Span<int> out) const {
  OPTHASH_CHECK_MSG(fitted_, "PredictBatch before Fit");
  OPTHASH_CHECK_EQ(rows.rows(), out.size());
  if (rows.rows() == 0) return;
  OPTHASH_CHECK_EQ(rows.cols(), num_features_);
  for (size_t i = 0; i < rows.rows(); ++i) {
    out[i] = PredictRow(rows.Row(i));
  }
}

size_t DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the explicit node array.
  std::vector<std::pair<int32_t, size_t>> stack = {{0, 0}};
  size_t max_depth = 0;
  while (!stack.empty()) {
    auto [node_id, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const Node& node = nodes_[node_id];
    if (!node.is_leaf) {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  return max_depth;
}

namespace {
constexpr const char* kCartMagic = "opthash.cart.v1";
}  // namespace

void DecisionTree::SerializeTo(std::ostream& out) const {
  OPTHASH_CHECK_MSG(fitted_, "Serialize before Fit");
  out << kCartMagic << ' ' << num_features_ << ' ' << num_classes_ << ' '
      << nodes_.size() << '\n';
  out << std::setprecision(17);
  for (const Node& node : nodes_) {
    out << (node.is_leaf ? 1 : 0) << ' ' << node.feature << ' '
        << node.threshold << ' ' << node.left << ' ' << node.right << ' '
        << node.label << ' ' << node.impurity_decrease << ' '
        << node.num_samples << '\n';
  }
}

std::string DecisionTree::Serialize() const {
  std::ostringstream out;
  SerializeTo(out);
  return out.str();
}

Result<DecisionTree> DecisionTree::DeserializeFrom(std::istream& in) {
  std::string magic;
  size_t num_features = 0;
  size_t num_classes = 0;
  size_t node_count = 0;
  if (!(in >> magic >> num_features >> num_classes >> node_count)) {
    return Status::InvalidArgument("truncated decision tree header");
  }
  if (magic != kCartMagic) {
    return Status::InvalidArgument("bad decision tree magic: " + magic);
  }
  DecisionTree tree;
  tree.num_features_ = num_features;
  tree.num_classes_ = num_classes;
  tree.nodes_.resize(node_count);
  for (Node& node : tree.nodes_) {
    int is_leaf = 0;
    if (!(in >> is_leaf >> node.feature >> node.threshold >> node.left >>
          node.right >> node.label >> node.impurity_decrease >>
          node.num_samples)) {
      return Status::InvalidArgument("truncated decision tree nodes");
    }
    node.is_leaf = is_leaf != 0;
    // Same label bound as the binary reader: a label past the class count
    // would abort Predict's bounds CHECK later.
    if (node.label < 0 || static_cast<size_t>(node.label) >= num_classes) {
      return Status::InvalidArgument("decision tree label out of range");
    }
    const auto count = static_cast<int32_t>(node_count);
    if (!node.is_leaf &&
        (node.left < 0 || node.right < 0 || node.left >= count ||
         node.right >= count || node.feature >= num_features)) {
      return Status::InvalidArgument("decision tree node out of range");
    }
  }
  if (tree.nodes_.empty()) {
    return Status::InvalidArgument("decision tree has no nodes");
  }
  tree.fitted_ = true;
  return tree;
}

Result<DecisionTree> DecisionTree::Deserialize(const std::string& blob) {
  std::istringstream in(blob);
  return DeserializeFrom(in);
}

namespace {
constexpr uint32_t kCartPayloadVersion = 1;
constexpr uint32_t kNodeFlagLeaf = 1u << 0;
constexpr size_t kNodeRecordBytes = 48;
}  // namespace

void DecisionTree::SerializeBinary(io::ByteWriter& out) const {
  OPTHASH_CHECK_MSG(fitted_, "SerializeBinary before Fit");
  out.WriteU32(kCartPayloadVersion);
  out.WriteU32(0);  // reserved
  out.WriteU64(num_features_);
  out.WriteU64(num_classes_);
  out.WriteU64(nodes_.size());
  for (const Node& node : nodes_) {
    out.WriteU64(node.feature);
    out.WriteDouble(node.threshold);
    out.WriteI32(node.left);
    out.WriteI32(node.right);
    out.WriteI32(node.label);
    out.WriteU32(node.is_leaf ? kNodeFlagLeaf : 0u);
    out.WriteDouble(node.impurity_decrease);
    out.WriteU64(node.num_samples);
  }
}

Result<DecisionTree> DecisionTree::DeserializeBinary(io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kCartPayloadVersion) {
    return Status::InvalidArgument("unsupported cart payload version " +
                                   std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(reserved, in.ReadU32());
  if (reserved != 0) {
    return Status::InvalidArgument("non-zero cart reserved field");
  }
  OPTHASH_IO_ASSIGN(num_features, in.ReadU64());
  OPTHASH_IO_ASSIGN(num_classes, in.ReadU64());
  OPTHASH_IO_ASSIGN(node_count, in.ReadU64());
  if (node_count == 0) {
    return Status::InvalidArgument("decision tree has no nodes");
  }
  if (num_classes == 0) {
    return Status::InvalidArgument("decision tree needs at least one class");
  }
  if (node_count > in.remaining() / kNodeRecordBytes) {
    return Status::InvalidArgument("cart node count exceeds payload");
  }
  DecisionTree tree;
  tree.num_features_ = num_features;
  tree.num_classes_ = num_classes;
  tree.nodes_.resize(node_count);
  for (size_t index = 0; index < node_count; ++index) {
    Node& node = tree.nodes_[index];
    OPTHASH_IO_ASSIGN(feature, in.ReadU64());
    OPTHASH_IO_ASSIGN(threshold, in.ReadDouble());
    OPTHASH_IO_ASSIGN(left, in.ReadI32());
    OPTHASH_IO_ASSIGN(right, in.ReadI32());
    OPTHASH_IO_ASSIGN(label, in.ReadI32());
    OPTHASH_IO_ASSIGN(flags, in.ReadU32());
    OPTHASH_IO_ASSIGN(impurity_decrease, in.ReadDouble());
    OPTHASH_IO_ASSIGN(num_samples, in.ReadU64());
    if ((flags & ~kNodeFlagLeaf) != 0) {
      return Status::InvalidArgument("unknown cart node flags");
    }
    node.feature = feature;
    node.threshold = threshold;
    node.left = left;
    node.right = right;
    node.label = label;
    node.is_leaf = (flags & kNodeFlagLeaf) != 0;
    node.impurity_decrease = impurity_decrease;
    node.num_samples = num_samples;
    // Every node carries its majority label; a corrupt one would abort
    // Predict's bounds CHECK later, so reject it here instead.
    if (node.label < 0 ||
        static_cast<uint64_t>(node.label) >= num_classes) {
      return Status::InvalidArgument("decision tree label out of range");
    }
    // The builder appends children after their parent, so child > parent
    // is a format invariant; enforcing it makes cycles (which would hang
    // Predict) unrepresentable.
    const auto self = static_cast<int32_t>(index);
    const auto count = static_cast<int32_t>(node_count);
    if (!node.is_leaf &&
        (node.left <= self || node.right <= self || node.left >= count ||
         node.right >= count || node.feature >= num_features)) {
      return Status::InvalidArgument("decision tree node out of range");
    }
  }
  tree.fitted_ = true;
  return tree;
}

std::vector<double> DecisionTree::FeatureImportances() const {
  std::vector<double> importances(num_features_, 0.0);
  double total = 0.0;
  for (const Node& node : nodes_) {
    if (!node.is_leaf) {
      importances[node.feature] += node.impurity_decrease;
      total += node.impurity_decrease;
    }
  }
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

}  // namespace opthash::ml
