#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/random.h"

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

// One nonzero of a candidate column in the node, or (label kZeroGroup)
// all of the node's zeros in that column at once.
struct SplitEntry {
  double value;
  int32_t label;
  uint32_t weight;
};

constexpr int32_t kZeroGroup = -1;

}  // namespace

FeatureColumns::FeatureColumns(const Dataset& data)
    : num_rows_(data.NumExamples()), starts_(data.NumFeatures() + 1, 0) {
  OPTHASH_CHECK_LE(num_rows_, size_t{UINT32_MAX});
  // One pass over the dense rows collects the nonzeros in row order; a
  // stable counting sort by column then lays them out column by column.
  struct Nonzero {
    uint32_t row;
    uint32_t column;
    double value;
  };
  std::vector<Nonzero> nonzeros;
  const size_t num_columns = data.NumFeatures();
  for (size_t row = 0; row < num_rows_; ++row) {
    const double* x = data.Features(row).data();
    for (size_t column = 0; column < num_columns; ++column) {
      if (x[column] == 0.0) continue;
      nonzeros.push_back({static_cast<uint32_t>(row),
                          static_cast<uint32_t>(column), x[column]});
      ++starts_[column + 1];
    }
  }
  for (size_t column = 0; column < num_columns; ++column) {
    starts_[column + 1] += starts_[column];
  }
  rows_.resize(nonzeros.size());
  values_.resize(nonzeros.size());
  std::vector<size_t> next(starts_.begin(), starts_.end() - 1);
  for (const Nonzero& nonzero : nonzeros) {
    const size_t at = next[nonzero.column]++;
    rows_[at] = nonzero.row;
    values_[at] = nonzero.value;
  }
}

struct DecisionTree::FitState {
  FitState(const Dataset& train_in, const FeatureColumns& columns_in,
           const std::vector<uint32_t>& multiplicity_in, uint64_t seed)
      : train(train_in),
        columns(columns_in),
        multiplicity(multiplicity_in),
        rng(seed),
        node_of_row(train_in.NumExamples(), 0),
        features(train_in.NumFeatures()),
        entries(train_in.NumExamples() + 1) {}

  const Dataset& train;
  const FeatureColumns& columns;
  const std::vector<uint32_t>& multiplicity;
  Rng rng;
  // node_of_row[row] is 1 + the id of the node whose split is being
  // searched when the row is in it: the membership test for a column's
  // nonzeros. Rows outside the sample never get a mark.
  std::vector<uint32_t> node_of_row;
  std::vector<size_t> features;
  // One candidate column's entries: at most one per row, and the zeros.
  std::vector<SplitEntry> entries;
};

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {
  OPTHASH_CHECK_GE(config_.min_samples_leaf, 1u);
}

void DecisionTree::Fit(const Dataset& train) {
  const FeatureColumns columns(train);
  FitSample(train, columns, std::vector<uint32_t>(train.NumExamples(), 1));
}

void DecisionTree::FitSample(const Dataset& train,
                             const FeatureColumns& columns,
                             const std::vector<uint32_t>& multiplicity) {
  OPTHASH_CHECK_EQ(multiplicity.size(), train.NumExamples());
  OPTHASH_CHECK_EQ(columns.NumRows(), train.NumExamples());
  OPTHASH_CHECK_EQ(columns.NumColumns(), train.NumFeatures());
  std::vector<uint32_t> rows;
  uint64_t sample_size = 0;
  int max_label = -1;
  for (size_t row = 0; row < multiplicity.size(); ++row) {
    if (multiplicity[row] == 0) continue;
    rows.push_back(static_cast<uint32_t>(row));
    sample_size += multiplicity[row];
    max_label = std::max(max_label, train.Label(row));
  }
  OPTHASH_CHECK(!rows.empty());
  // Split entries carry a row's weight, and the zero group's, in 32 bits.
  OPTHASH_CHECK_LE(sample_size, uint64_t{UINT32_MAX});
  num_features_ = train.NumFeatures();
  num_classes_ = static_cast<size_t>(max_label + 1);
  nodes_.clear();
  FitState state(train, columns, multiplicity, config_.seed);
  BuildNode(state, rows, /*depth=*/0);
  fitted_ = true;
}

int32_t DecisionTree::BuildNode(FitState& state, std::vector<uint32_t>& rows,
                                size_t depth) {
  const Dataset& train = state.train;
  const std::vector<uint32_t>& multiplicity = state.multiplicity;
  size_t n = 0;
  std::vector<size_t> counts(num_classes_, 0);
  for (uint32_t row : rows) {
    counts[static_cast<size_t>(train.Label(row))] += multiplicity[row];
    n += multiplicity[row];
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
  std::vector<size_t>& features = state.features;
  std::iota(features.begin(), features.end(), size_t{0});
  size_t num_candidates = num_features_;
  if (config_.max_features != 0 && config_.max_features < num_features_) {
    state.rng.Shuffle(features);
    num_candidates = config_.max_features;
  }

  const auto mark = static_cast<uint32_t>(node_id) + 1;
  for (uint32_t row : rows) state.node_of_row[row] = mark;

  // Threshold scan per candidate feature over its values in the node in
  // ascending order: the negatives, the zeros as one group, the positives.
  double best_decrease = config_.min_impurity_decrease;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  bool found = false;

  SplitEntry* const entries = state.entries.data();
  std::vector<size_t> left_counts(num_classes_);
  std::vector<size_t> right_counts(num_classes_);
  std::vector<size_t> nonzero_counts(num_classes_, 0);
  for (size_t k = 0; k < num_candidates; ++k) {
    const size_t feature = features[k];
    // The node's nonzeros of the column: from the column when it holds
    // fewer entries than the node has rows, else from the rows.
    size_t num_entries = 0;
    size_t nonzero_total = 0;
    bool constant = true;
    const auto add = [&](uint32_t row, double value) {
      entries[num_entries] = {value, train.Label(row), multiplicity[row]};
      nonzero_total += multiplicity[row];
      constant = constant && value == entries[0].value;
      ++num_entries;
    };
    const Span<const uint32_t> column_rows = state.columns.Rows(feature);
    if (column_rows.size() <= rows.size()) {
      const double* value = state.columns.Values(feature).data();
      for (uint32_t row : column_rows) {
        if (state.node_of_row[row] == mark) add(row, *value);
        ++value;
      }
    } else {
      for (uint32_t row : rows) {
        const double value = train.Features(row)[feature];
        if (value != 0.0) add(row, value);
      }
    }
    if (num_entries == 0) continue;
    const size_t zero_total = n - nonzero_total;
    // A column of one value in the node has no boundary to score.
    if (constant && zero_total == 0) continue;
    // The zero group's histogram is the node's minus the nonzeros'.
    if (zero_total > 0) {
      for (size_t i = 0; i < num_entries; ++i) {
        nonzero_counts[static_cast<size_t>(entries[i].label)] +=
            entries[i].weight;
      }
      entries[num_entries++] = {0.0, kZeroGroup,
                                static_cast<uint32_t>(zero_total)};
    }
    // Only boundaries between distinct values are scored, and there the
    // left histogram holds every row at or below the value, so the order
    // of rows sharing a value is irrelevant: sort by value alone. A
    // boundary next to the zero group has the same threshold whether its
    // zeros were 0.0 or -0.0.
    std::sort(entries, entries + num_entries,
              [](const SplitEntry& a, const SplitEntry& b) {
                return a.value < b.value;
              });

    std::fill(left_counts.begin(), left_counts.end(), 0);
    size_t left_total = 0;
    for (size_t i = 0; i + 1 < num_entries; ++i) {
      const SplitEntry& entry = entries[i];
      if (entry.label == kZeroGroup) {
        for (size_t c = 0; c < num_classes_; ++c) {
          left_counts[c] += counts[c] - nonzero_counts[c];
        }
      } else {
        left_counts[static_cast<size_t>(entry.label)] += entry.weight;
      }
      left_total += entry.weight;
      if (entry.value == entries[i + 1].value) continue;
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
        best_threshold = 0.5 * (entry.value + entries[i + 1].value);
        found = true;
      }
    }
    if (zero_total > 0) {
      for (size_t i = 0; i < num_entries; ++i) {
        if (entries[i].label != kZeroGroup) {
          nonzero_counts[static_cast<size_t>(entries[i].label)] = 0;
        }
      }
    }
  }

  if (!found) return node_id;

  std::vector<uint32_t> left_rows;
  std::vector<uint32_t> right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  for (uint32_t row : rows) {
    if (train.Features(row)[best_feature] <= best_threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  OPTHASH_CHECK(!left_rows.empty() && !right_rows.empty());
  rows.clear();
  rows.shrink_to_fit();

  const int32_t left_id = BuildNode(state, left_rows, depth + 1);
  const int32_t right_id = BuildNode(state, right_rows, depth + 1);

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
