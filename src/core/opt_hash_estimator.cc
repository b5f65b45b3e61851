#include "core/opt_hash_estimator.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/random.h"
#include "common/timer.h"

namespace opthash::core {

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kBcd:
      return "bcd";
    case SolverKind::kDp:
      return "dp";
    case SolverKind::kExact:
      return "milp";
  }
  return "unknown";
}

const char* ClassifierKindName(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kNone:
      return "none";
    case ClassifierKind::kLogisticRegression:
      return "logreg";
    case ClassifierKind::kCart:
      return "cart";
    case ClassifierKind::kRandomForest:
      return "rf";
  }
  return "unknown";
}

Status OptHashConfig::Validate() const {
  if (total_buckets < 2) {
    return Status::InvalidArgument("total_buckets must be >= 2");
  }
  if (id_ratio <= 0.0) {
    return Status::InvalidArgument("id_ratio (c) must be positive");
  }
  if (lambda < 0.0 || lambda > 1.0) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  return Status::OK();
}

Result<OptHashEstimator> OptHashEstimator::Train(
    const OptHashConfig& config, const std::vector<PrefixElement>& prefix) {
  Status status = config.Validate();
  if (!status.ok()) return status;
  if (prefix.empty()) {
    return Status::InvalidArgument("prefix must contain at least one element");
  }
  Timer total_timer;

  // Memory split (§7.3): n stored IDs, b = b_total - n buckets.
  const auto id_budget = static_cast<size_t>(
      std::floor(static_cast<double>(config.total_buckets) /
                 (1.0 + config.id_ratio)));
  if (id_budget < 1 || id_budget >= config.total_buckets) {
    return Status::InvalidArgument(
        "id_ratio leaves no room for buckets or no room for IDs");
  }
  const size_t num_buckets = config.total_buckets - id_budget;

  // Subsample the prefix support when it exceeds the ID budget, with
  // probability proportional to observed frequency (§7.3).
  std::vector<size_t> chosen;
  if (prefix.size() > id_budget) {
    std::vector<double> weights(prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) {
      weights[i] = prefix[i].frequency;
    }
    Rng rng(config.seed);
    chosen = WeightedSampleWithoutReplacement(weights, id_budget, rng);
    std::sort(chosen.begin(), chosen.end());
  } else {
    chosen.resize(prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) chosen[i] = i;
  }

  // Build the optimization instance over the sampled elements.
  opt::HashingProblem problem;
  problem.num_buckets = num_buckets;
  problem.lambda = config.lambda;
  const bool have_features = !prefix.front().features.empty();
  if (config.lambda < 1.0 && !have_features) {
    return Status::InvalidArgument(
        "lambda < 1 requires element features in the prefix");
  }
  // Only the similarity term reads features, so at lambda = 1 no row is
  // copied; the classifier takes its rows from the prefix.
  const bool copy_features = config.lambda < 1.0;
  problem.frequencies.reserve(chosen.size());
  if (copy_features) problem.features.reserve(chosen.size());
  for (size_t index : chosen) {
    problem.frequencies.push_back(prefix[index].frequency);
    if (copy_features) problem.features.push_back(prefix[index].features);
  }

  opt::SolveResult solved;
  switch (config.solver) {
    case SolverKind::kBcd: {
      opt::BcdSolver solver(config.bcd);
      solved = solver.Solve(problem);
      break;
    }
    case SolverKind::kDp: {
      opt::DpSolver solver(config.dp);
      solved = solver.Solve(problem);
      break;
    }
    case SolverKind::kExact: {
      opt::ExactSolver solver(config.exact);
      solved = solver.Solve(problem);
      break;
    }
  }

  OptHashEstimator estimator;
  estimator.bucket_freq_.assign(num_buckets, 0.0);
  estimator.bucket_count_.assign(num_buckets, 0.0);
  for (size_t t = 0; t < chosen.size(); ++t) {
    const auto bucket = static_cast<size_t>(solved.assignment[t]);
    estimator.bucket_freq_[bucket] += prefix[chosen[t]].frequency;
    estimator.bucket_count_[bucket] += 1.0;
  }
  // The table's columns in ascending id order; an id the prefix repeats
  // keeps its first sampled entry.
  std::vector<std::pair<uint64_t, size_t>> by_id;
  for (size_t t = 0; t < chosen.size(); ++t) {
    by_id.emplace_back(prefix[chosen[t]].id, t);
  }
  std::sort(by_id.begin(), by_id.end());
  for (const auto& [id, t] : by_id) {
    if (estimator.table_ids_.empty() || estimator.table_ids_.back() != id) {
      estimator.table_ids_.push_back(id);
      estimator.table_buckets_.push_back(solved.assignment[t]);
    }
  }

  // Phase 2 (§5.2): classifier mapping features to learned buckets.
  Timer classifier_timer;
  if (config.classifier != ClassifierKind::kNone && have_features) {
    ml::Dataset train(prefix.front().features.size());
    for (size_t t = 0; t < chosen.size(); ++t) {
      train.Add(prefix[chosen[t]].features,
                static_cast<int>(solved.assignment[t]));
    }
    switch (config.classifier) {
      case ClassifierKind::kLogisticRegression:
        estimator.classifier_ =
            std::make_unique<ml::LogisticRegression>(config.logreg);
        break;
      case ClassifierKind::kCart:
        estimator.classifier_ = std::make_unique<ml::DecisionTree>(config.cart);
        break;
      case ClassifierKind::kRandomForest:
        estimator.classifier_ = std::make_unique<ml::RandomForest>(config.rf);
        break;
      case ClassifierKind::kNone:
        break;
    }
    if (estimator.classifier_ != nullptr) {
      estimator.classifier_->Fit(train);
      estimator.classifier_kind_ = config.classifier;
    }
  }

  estimator.training_info_.num_prefix_elements = prefix.size();
  estimator.training_info_.num_sampled_elements = chosen.size();
  estimator.training_info_.num_buckets = num_buckets;
  estimator.training_info_.classifier_train_seconds =
      classifier_timer.ElapsedSeconds();
  estimator.training_info_.solve_result = std::move(solved);
  estimator.training_info_.total_train_seconds = total_timer.ElapsedSeconds();
  return estimator;
}

int32_t OptHashEstimator::BucketOf(const stream::StreamItem& item) const {
  const int32_t bucket = table().Find(item.id);
  if (bucket >= 0 || item.features == nullptr || classifier_ == nullptr) {
    return bucket;
  }
  const int predicted = classifier_->Predict(*item.features);
  OPTHASH_CHECK_GE(predicted, 0);
  OPTHASH_CHECK_LT(static_cast<size_t>(predicted), bucket_freq_.size());
  return predicted;
}

void OptHashEstimator::Update(const stream::StreamItem& item) {
  // Static mode (Fig. 9c): only elements stored in the learned hash table
  // are tracked during stream processing.
  const int32_t bucket = table().Find(item.id);
  if (bucket >= 0) bucket_freq_[static_cast<size_t>(bucket)] += 1.0;
}

void OptHashEstimator::AccumulateUpdates(Span<const uint64_t> ids,
                                         Span<double> bucket_deltas) const {
  OPTHASH_CHECK_EQ(bucket_deltas.size(), bucket_freq_.size());
  constexpr size_t kChunk = 256;
  int32_t buckets[kChunk];
  const LearnedTable learned = table();
  double* deltas = bucket_deltas.data();
  for (size_t base = 0; base < ids.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, ids.size() - base);
    learned.FindBatch(ids.subspan(base, chunk),
                      Span<int32_t>(buckets, chunk));
    // Compact the hits to the front, then add them: no branch on hit or
    // miss, whose mix no predictor can learn.
    size_t hits = 0;
    for (size_t i = 0; i < chunk; ++i) {
      const int32_t bucket = buckets[i];
      buckets[hits] = bucket;
      hits += static_cast<size_t>(bucket >= 0);
    }
    for (size_t h = 0; h < hits; ++h) {
      deltas[static_cast<size_t>(buckets[h])] += 1.0;
    }
  }
}

Result<OptHashEstimator::ArrivalCounts> OptHashEstimator::CountArrivals(
    Span<const uint64_t> ids, const stream::ShardedIngestConfig& config) const {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;
  // Bucket deltas add exactly, so replicas need no key partition. A
  // key-partitioned run hands every block to every worker, and each
  // worker would count every id.
  stream::ShardedIngestConfig replicated = config;
  replicated.mode = stream::ShardMode::kReplicated;
  const size_t buckets = num_buckets();
  ArrivalCounts counts;
  counts.deltas.assign(
      stream::ResolveThreadCount(config.num_threads) * buckets, 0.0);
  auto stats = stream::ShardedIngestCustom(
      ids, replicated,
      [&](size_t worker) {
        return Span<double>(counts.deltas.data() + worker * buckets, buckets);
      },
      [this](Span<double>& deltas, size_t /*worker*/,
             Span<const uint64_t> block) { AccumulateUpdates(block, deltas); },
      [](Span<double>&) { return Status::OK(); });
  if (!stats.ok()) return stats.status();
  counts.stats = stats.value();
  return counts;
}

Status OptHashEstimator::ApplyBucketDeltas(Span<const double> deltas) {
  const size_t buckets = bucket_freq_.size();
  if (deltas.size() % buckets != 0) {
    return Status::InvalidArgument(
        "bucket delta array size is not a multiple of num_buckets()");
  }
  for (size_t base = 0; base < deltas.size(); base += buckets) {
    for (size_t j = 0; j < buckets; ++j) {
      bucket_freq_[j] += deltas.data()[base + j];
    }
  }
  return Status::OK();
}

Result<stream::IngestStats> OptHashEstimator::Ingest(
    Span<const uint64_t> ids, const stream::ShardedIngestConfig& config) {
  auto counts = CountArrivals(ids, config);
  if (!counts.ok()) return counts.status();
  const Status applied = ApplyBucketDeltas(counts.value().deltas);
  if (!applied.ok()) return applied;
  return counts.value().stats;
}

void OptHashEstimator::ClassifyPendingRows(OptHashQueryWorkspace& ws) const {
  // One batch call resolves every pending row — the classifier amortizes
  // its per-call overhead and scratch across the block.
  ws.predictions.resize(ws.pending.size());
  classifier_->PredictBatch(ws.features,
                            Span<int>(ws.predictions.data(),
                                      ws.predictions.size()));
  for (size_t p = 0; p < ws.pending.size(); ++p) {
    const int bucket = ws.predictions[p];
    OPTHASH_CHECK_GE(bucket, 0);
    OPTHASH_CHECK_LT(static_cast<size_t>(bucket), bucket_freq_.size());
    ws.buckets[ws.pending[p]] = bucket;
  }
}

void OptHashEstimator::RouteBatch(Span<const stream::StreamItem> items,
                                  OptHashQueryWorkspace& ws) const {
  ws.buckets.resize(items.size());
  ws.pending.clear();
  // Pass 1a: the learned table is probed a stack block of ids at a time;
  // classifier candidates are only recorded, not predicted yet.
  // Featureless misses stay -1 — there is nothing to classify them with.
  constexpr size_t kChunk = 256;
  uint64_t ids[kChunk];
  const LearnedTable learned = table();
  for (size_t base = 0; base < items.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, items.size() - base);
    for (size_t i = 0; i < chunk; ++i) ids[i] = items[base + i].id;
    learned.FindBatch(Span<const uint64_t>(ids, chunk),
                      Span<int32_t>(ws.buckets.data() + base, chunk));
  }
  if (classifier_ == nullptr) return;
  for (size_t i = 0; i < items.size(); ++i) {
    if (ws.buckets[i] < 0 && items[i].features != nullptr) {
      ws.pending.push_back(i);
    }
  }
  if (ws.pending.empty()) return;
  // Pass 1b: gather the pending feature rows into one matrix (Reshape
  // leaves cells unspecified; every used row is fully copied here).
  const size_t dim = items[ws.pending.front()].features->size();
  ws.features.Reshape(ws.pending.size(), dim);
  for (size_t p = 0; p < ws.pending.size(); ++p) {
    const std::vector<double>& row = *items[ws.pending[p]].features;
    OPTHASH_CHECK_EQ(row.size(), dim);
    std::copy(row.begin(), row.end(), ws.features.Row(p));
  }
  ClassifyPendingRows(ws);
}

void OptHashEstimator::EstimateBatch(Span<const stream::StreamItem> items,
                                     Span<double> out,
                                     OptHashQueryWorkspace& ws) const {
  OPTHASH_CHECK_EQ(items.size(), out.size());
  RouteBatch(items, ws);
  bucket_counters().GatherAverages(ws.buckets, out);
}

namespace {
// Per-thread workspace of the workspace-free entry points. Thread-local
// (not per-estimator) so const queries stay thread-safe and the scalar
// Estimate override is allocation-free in steady state.
OptHashQueryWorkspace& ThreadQueryWorkspace() {
  thread_local OptHashQueryWorkspace workspace;
  return workspace;
}
}  // namespace

void OptHashEstimator::EstimateBatch(Span<const stream::StreamItem> items,
                                     Span<double> out) const {
  EstimateBatch(items, out, ThreadQueryWorkspace());
}

double OptHashEstimator::Estimate(const stream::StreamItem& item) const {
  double estimate = 0.0;
  EstimateBatch(Span<const stream::StreamItem>(&item, 1),
                Span<double>(&estimate, 1), ThreadQueryWorkspace());
  return estimate;
}

size_t OptHashEstimator::MemoryBuckets() const {
  // b buckets plus one bucket per stored ID (§7.3: "just storing their IDs
  // would require 200,000 buckets").
  return bucket_freq_.size() + table_ids_.size();
}

namespace {
constexpr const char* kEstimatorMagic = "opthash.estimator.v1";

// A parsed model as the estimator holds it.
template <typename Model>
Result<std::unique_ptr<ml::Classifier>> Boxed(Result<Model> model) {
  if (!model.ok()) return model.status();
  return std::unique_ptr<ml::Classifier>(
      std::make_unique<Model>(std::move(model).value()));
}

// Load-time guard shared by both payload encodings: the classifier's
// labels index buckets, so it must not predict more classes than there
// are.
Status CheckClassifierFitsBuckets(const ml::Classifier* classifier,
                                  uint64_t num_buckets) {
  if (classifier != nullptr && classifier->NumClasses() > num_buckets) {
    return Status::InvalidArgument(
        "classifier predicts " + std::to_string(classifier->NumClasses()) +
        " classes but the estimator has " + std::to_string(num_buckets) +
        " buckets");
  }
  return Status::OK();
}

// Both loaders hold a table to what LearnedTable searches by: strictly
// ascending ids, each mapped to one of the estimator's buckets.
Status CheckTableColumns(const std::vector<uint64_t>& ids,
                         const std::vector<int32_t>& buckets,
                         uint64_t num_buckets) {
  for (size_t t = 0; t < ids.size(); ++t) {
    if (t > 0 && ids[t] <= ids[t - 1]) {
      return Status::InvalidArgument("table ids must be strictly ascending");
    }
    if (buckets[t] < 0 || static_cast<uint64_t>(buckets[t]) >= num_buckets) {
      return Status::InvalidArgument("table bucket out of range");
    }
  }
  return Status::OK();
}
}  // namespace

std::string OptHashEstimator::Serialize() const {
  std::ostringstream out;
  out << kEstimatorMagic << ' ' << bucket_freq_.size() << ' '
      << table_ids_.size()
      << ' ' << ClassifierKindName(classifier_kind_) << '\n';
  out << std::setprecision(17);
  for (double phi : bucket_freq_) out << phi << ' ';
  out << '\n';
  for (double c : bucket_count_) out << c << ' ';
  out << '\n';
  for (const auto [id, bucket] : table()) {
    out << id << ' ' << bucket << '\n';
  }
  if (classifier_ != nullptr) {
    switch (classifier_kind_) {
      case ClassifierKind::kLogisticRegression:
        static_cast<const ml::LogisticRegression*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kCart:
        static_cast<const ml::DecisionTree*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kRandomForest:
        static_cast<const ml::RandomForest*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kNone:
        break;
    }
  }
  return out.str();
}

Result<OptHashEstimator> OptHashEstimator::Deserialize(
    const std::string& blob) {
  std::istringstream in(blob);
  std::string magic;
  size_t num_buckets = 0;
  size_t table_size = 0;
  std::string classifier_name;
  if (!(in >> magic >> num_buckets >> table_size >> classifier_name)) {
    return Status::InvalidArgument("truncated estimator header");
  }
  if (magic != kEstimatorMagic) {
    return Status::InvalidArgument("bad estimator magic: " + magic);
  }
  if (num_buckets == 0) {
    return Status::InvalidArgument("estimator needs at least one bucket");
  }
  OptHashEstimator estimator;
  estimator.bucket_freq_.resize(num_buckets);
  estimator.bucket_count_.resize(num_buckets);
  for (double& phi : estimator.bucket_freq_) {
    if (!(in >> phi)) {
      return Status::InvalidArgument("truncated bucket frequencies");
    }
  }
  for (double& c : estimator.bucket_count_) {
    if (!(in >> c)) return Status::InvalidArgument("truncated bucket counts");
  }
  for (size_t t = 0; t < table_size; ++t) {
    uint64_t id = 0;
    int32_t bucket = 0;
    if (!(in >> id >> bucket)) {
      return Status::InvalidArgument("truncated table entries");
    }
    estimator.table_ids_.push_back(id);
    estimator.table_buckets_.push_back(bucket);
  }
  OPTHASH_IO_RETURN_IF_ERROR(CheckTableColumns(
      estimator.table_ids_, estimator.table_buckets_, num_buckets));

  Result<std::unique_ptr<ml::Classifier>> classifier{nullptr};
  if (classifier_name == ClassifierKindName(ClassifierKind::kNone)) {
    estimator.classifier_kind_ = ClassifierKind::kNone;
  } else if (classifier_name ==
             ClassifierKindName(ClassifierKind::kLogisticRegression)) {
    classifier = Boxed(ml::LogisticRegression::DeserializeFrom(in));
    estimator.classifier_kind_ = ClassifierKind::kLogisticRegression;
  } else if (classifier_name == ClassifierKindName(ClassifierKind::kCart)) {
    classifier = Boxed(ml::DecisionTree::DeserializeFrom(in));
    estimator.classifier_kind_ = ClassifierKind::kCart;
  } else if (classifier_name ==
             ClassifierKindName(ClassifierKind::kRandomForest)) {
    classifier = Boxed(ml::RandomForest::DeserializeFrom(in));
    estimator.classifier_kind_ = ClassifierKind::kRandomForest;
  } else {
    return Status::InvalidArgument("unknown classifier kind: " +
                                   classifier_name);
  }
  if (!classifier.ok()) return classifier.status();
  estimator.classifier_ = std::move(classifier).value();
  OPTHASH_IO_RETURN_IF_ERROR(
      CheckClassifierFitsBuckets(estimator.classifier_.get(), num_buckets));

  estimator.training_info_.num_sampled_elements = table_size;
  estimator.training_info_.num_buckets = num_buckets;
  return estimator;
}

namespace {
constexpr uint32_t kEstimatorPayloadVersion = 1;
}  // namespace

void OptHashEstimator::SerializeBinary(io::ByteWriter& out) const {
  out.WriteU32(kEstimatorPayloadVersion);
  out.WriteU32(static_cast<uint32_t>(classifier_kind_));
  out.WriteU64(bucket_freq_.size());
  out.WriteU64(table_ids_.size());
  out.WriteDoubleArray(bucket_freq_);
  out.WriteDoubleArray(bucket_count_);
  out.WriteU64Array(table_ids_);
  out.WriteI32Array(table_buckets_);
  out.AlignTo(8);
  io::ByteWriter classifier;
  if (classifier_ != nullptr) {
    switch (classifier_kind_) {
      case ClassifierKind::kLogisticRegression:
        static_cast<const ml::LogisticRegression*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kCart:
        static_cast<const ml::DecisionTree*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kRandomForest:
        static_cast<const ml::RandomForest*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kNone:
        break;
    }
  }
  out.WriteU64(classifier.size());
  out.WriteBytes(classifier.bytes().data(), classifier.size());
}

Result<std::unique_ptr<ml::Classifier>> DeserializeClassifierBinary(
    uint32_t kind, uint64_t num_buckets, io::ByteReader& in) {
  if (kind > static_cast<uint32_t>(ClassifierKind::kRandomForest)) {
    return Status::InvalidArgument("unknown classifier kind " +
                                   std::to_string(kind));
  }
  OPTHASH_IO_ASSIGN(size, in.ReadU64());
  auto blob = in.ReadSpan(size);
  if (!blob.ok()) return blob.status();
  io::ByteReader payload(blob.value());
  Result<std::unique_ptr<ml::Classifier>> classifier{nullptr};
  switch (static_cast<ClassifierKind>(kind)) {
    case ClassifierKind::kNone:
      if (size != 0) {
        return Status::InvalidArgument(
            "classifier payload present without a classifier");
      }
      break;
    case ClassifierKind::kLogisticRegression:
      classifier = Boxed(ml::LogisticRegression::DeserializeBinary(payload));
      break;
    case ClassifierKind::kCart:
      classifier = Boxed(ml::DecisionTree::DeserializeBinary(payload));
      break;
    case ClassifierKind::kRandomForest:
      classifier = Boxed(ml::RandomForest::DeserializeBinary(payload));
      break;
  }
  if (!classifier.ok()) return classifier.status();
  OPTHASH_IO_RETURN_IF_ERROR(payload.ExpectFullyConsumed());
  OPTHASH_IO_RETURN_IF_ERROR(
      CheckClassifierFitsBuckets(classifier.value().get(), num_buckets));
  return classifier;
}

Result<OptHashEstimator> OptHashEstimator::DeserializeBinary(
    io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kEstimatorPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported estimator payload version " + std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(kind, in.ReadU32());
  OPTHASH_IO_ASSIGN(num_buckets, in.ReadU64());
  OPTHASH_IO_ASSIGN(table_size, in.ReadU64());
  if (num_buckets == 0) {
    return Status::InvalidArgument("estimator needs at least one bucket");
  }
  if (num_buckets > in.remaining() / (2 * sizeof(double))) {
    return Status::InvalidArgument("estimator bucket count exceeds payload");
  }
  OptHashEstimator estimator;
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadDoubleArray(estimator.bucket_freq_, num_buckets));
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadDoubleArray(estimator.bucket_count_, num_buckets));
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadU64Array(estimator.table_ids_, table_size));
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadI32Array(estimator.table_buckets_, table_size));
  OPTHASH_IO_RETURN_IF_ERROR(in.AlignTo(8));
  OPTHASH_IO_RETURN_IF_ERROR(CheckTableColumns(
      estimator.table_ids_, estimator.table_buckets_, num_buckets));
  auto classifier = DeserializeClassifierBinary(kind, num_buckets, in);
  if (!classifier.ok()) return classifier.status();
  estimator.classifier_ = std::move(classifier).value();
  estimator.classifier_kind_ = static_cast<ClassifierKind>(kind);
  estimator.training_info_.num_sampled_elements = table_size;
  estimator.training_info_.num_buckets = num_buckets;
  return estimator;
}

}  // namespace opthash::core
