#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/random.h"

namespace opthash::ml {

RandomForest::RandomForest(RandomForestConfig config) : config_(config) {
  OPTHASH_CHECK_GE(config_.num_trees, 1u);
}

void RandomForest::Fit(const Dataset& train) {
  OPTHASH_CHECK_GT(train.NumExamples(), 0u);
  num_classes_ = std::max<size_t>(train.NumClasses(), 1);
  num_features_ = train.NumFeatures();
  const size_t n = train.NumExamples();

  size_t max_features = config_.max_features;
  if (max_features == 0) {
    max_features = static_cast<size_t>(std::max(
        1.0, std::floor(std::sqrt(static_cast<double>(num_features_)))));
  }

  Rng rng(config_.seed);
  trees_.clear();
  trees_.reserve(config_.num_trees);
  std::vector<size_t> bootstrap(n);
  for (size_t t = 0; t < config_.num_trees; ++t) {
    for (size_t i = 0; i < n; ++i) bootstrap[i] = rng.NextBounded(n);
    const Dataset sample = train.Subset(bootstrap);
    DecisionTreeConfig tree_config;
    tree_config.max_depth = config_.max_depth;
    tree_config.max_features = max_features;
    tree_config.min_samples_leaf = config_.min_samples_leaf;
    tree_config.seed = rng.NextUint64();
    DecisionTree tree(tree_config);
    // A bootstrap sample can miss the highest labels, so a tree's class
    // count may be below the forest's. That is harmless: every label a
    // tree casts is a global label, and PredictRow counts the cast labels
    // themselves rather than indexing a per-class array.
    tree.Fit(sample);
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
}

int RandomForest::Predict(const std::vector<double>& features) const {
  OPTHASH_CHECK_MSG(fitted_, "Predict before Fit");
  OPTHASH_CHECK_EQ(features.size(), num_features_);
  return PredictRow(features.data());
}

int RandomForest::PredictRow(const double* features) const {
  // Only num_trees labels are ever cast, so the votes are counted over
  // those labels sorted rather than over a per-class array (on a bundle
  // the classes are buckets): the longest run of equal labels wins, and
  // the ascending scan keeps the smallest label among equally long runs.
  thread_local std::vector<int> labels;
  labels.clear();
  for (const DecisionTree& tree : trees_) {
    const int label = tree.PredictRow(features);
    OPTHASH_CHECK_LT(static_cast<size_t>(label), num_classes_);
    labels.push_back(label);
  }
  std::sort(labels.begin(), labels.end());
  int winner = labels.front();
  size_t winner_votes = 0;
  for (size_t begin = 0; begin < labels.size();) {
    size_t end = begin + 1;
    while (end < labels.size() && labels[end] == labels[begin]) ++end;
    if (end - begin > winner_votes) {
      winner = labels[begin];
      winner_votes = end - begin;
    }
    begin = end;
  }
  return winner;
}

void RandomForest::PredictBatch(const Matrix& rows, Span<int> out) const {
  OPTHASH_CHECK_MSG(fitted_, "PredictBatch before Fit");
  OPTHASH_CHECK_EQ(rows.rows(), out.size());
  if (rows.rows() == 0) return;
  OPTHASH_CHECK_EQ(rows.cols(), num_features_);
  for (size_t i = 0; i < rows.rows(); ++i) {
    out[i] = PredictRow(rows.Row(i));
  }
}

namespace {
constexpr const char* kForestMagic = "opthash.rf.v1";

// Every tree reads the forest's feature rows. A tree's label space may
// be smaller than the forest's (a bootstrap sample can miss the highest
// label, see Fit) but never larger, or its votes would index past the
// forest's classes.
Status CheckTreeFitsForest(const DecisionTree& tree, size_t num_features,
                           size_t num_classes) {
  if (tree.NumFeatures() != num_features) {
    return Status::InvalidArgument(
        "rf tree reads " + std::to_string(tree.NumFeatures()) +
        " features but the forest has " + std::to_string(num_features));
  }
  if (tree.NumClasses() > num_classes) {
    return Status::InvalidArgument(
        "rf tree predicts " + std::to_string(tree.NumClasses()) +
        " classes but the forest has " + std::to_string(num_classes));
  }
  return Status::OK();
}
}  // namespace

void RandomForest::SerializeTo(std::ostream& out) const {
  OPTHASH_CHECK_MSG(fitted_, "Serialize before Fit");
  out << kForestMagic << ' ' << num_classes_ << ' ' << num_features_ << ' '
      << trees_.size() << '\n';
  for (const DecisionTree& tree : trees_) tree.SerializeTo(out);
}

std::string RandomForest::Serialize() const {
  std::ostringstream out;
  SerializeTo(out);
  return out.str();
}

Result<RandomForest> RandomForest::DeserializeFrom(std::istream& in) {
  std::string magic;
  size_t num_classes = 0;
  size_t num_features = 0;
  size_t num_trees = 0;
  if (!(in >> magic >> num_classes >> num_features >> num_trees)) {
    return Status::InvalidArgument("truncated random forest header");
  }
  if (magic != kForestMagic) {
    return Status::InvalidArgument("bad random forest magic: " + magic);
  }
  if (num_trees == 0) {
    return Status::InvalidArgument("random forest has no trees");
  }
  RandomForest forest;
  forest.num_classes_ = num_classes;
  forest.num_features_ = num_features;
  forest.trees_.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    Result<DecisionTree> tree = DecisionTree::DeserializeFrom(in);
    if (!tree.ok()) return tree.status();
    OPTHASH_IO_RETURN_IF_ERROR(
        CheckTreeFitsForest(tree.value(), num_features, num_classes));
    forest.trees_.push_back(std::move(tree).value());
  }
  forest.fitted_ = true;
  return forest;
}

Result<RandomForest> RandomForest::Deserialize(const std::string& blob) {
  std::istringstream in(blob);
  return DeserializeFrom(in);
}

namespace {
constexpr uint32_t kForestPayloadVersion = 1;
}  // namespace

void RandomForest::SerializeBinary(io::ByteWriter& out) const {
  OPTHASH_CHECK_MSG(fitted_, "SerializeBinary before Fit");
  out.WriteU32(kForestPayloadVersion);
  out.WriteU32(0);  // reserved
  out.WriteU64(num_classes_);
  out.WriteU64(num_features_);
  out.WriteU64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.SerializeBinary(out);
}

Result<RandomForest> RandomForest::DeserializeBinary(io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kForestPayloadVersion) {
    return Status::InvalidArgument("unsupported rf payload version " +
                                   std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(reserved, in.ReadU32());
  if (reserved != 0) {
    return Status::InvalidArgument("non-zero rf reserved field");
  }
  OPTHASH_IO_ASSIGN(num_classes, in.ReadU64());
  OPTHASH_IO_ASSIGN(num_features, in.ReadU64());
  OPTHASH_IO_ASSIGN(num_trees, in.ReadU64());
  if (num_trees == 0) {
    return Status::InvalidArgument("random forest has no trees");
  }
  // Each tree payload is at least its 32-byte header plus one 48-byte
  // node; cheap sanity bound before reserving.
  if (num_trees > in.remaining() / 80) {
    return Status::InvalidArgument("rf tree count exceeds payload");
  }
  RandomForest forest;
  forest.num_classes_ = num_classes;
  forest.num_features_ = num_features;
  forest.trees_.reserve(num_trees);
  for (uint64_t t = 0; t < num_trees; ++t) {
    auto tree = DecisionTree::DeserializeBinary(in);
    if (!tree.ok()) return tree.status();
    OPTHASH_IO_RETURN_IF_ERROR(
        CheckTreeFitsForest(tree.value(), num_features, num_classes));
    forest.trees_.push_back(std::move(tree).value());
  }
  forest.fitted_ = true;
  return forest;
}

std::vector<double> RandomForest::FeatureImportances() const {
  OPTHASH_CHECK_MSG(fitted_, "FeatureImportances before Fit");
  std::vector<double> importances(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const std::vector<double> tree_importances = tree.FeatureImportances();
    for (size_t f = 0; f < num_features_; ++f) {
      importances[f] += tree_importances[f];
    }
  }
  for (double& v : importances) v /= static_cast<double>(trees_.size());
  return importances;
}

}  // namespace opthash::ml
