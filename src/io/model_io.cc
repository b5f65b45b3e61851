#include "io/model_io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "io/bytes.h"

namespace opthash::io {

const char* SnapshotFormatName(SnapshotFormat format) {
  return format == SnapshotFormat::kBinary ? "binary" : "text";
}

Result<SnapshotFormat> ParseSnapshotFormat(const std::string& name) {
  if (name == "text") return SnapshotFormat::kText;
  if (name == "binary") return SnapshotFormat::kBinary;
  return Status::InvalidArgument("unknown format (want text|binary): " +
                                 name);
}

Status SaveModelBundle(const std::string& path, const ModelBundle& bundle,
                       SnapshotFormat format) {
  OPTHASH_CHECK_MSG(bundle.estimator.has_value(),
                    "SaveModelBundle without a trained estimator");
  if (format == SnapshotFormat::kText) {
    std::ostringstream out;
    out << kTextBundleMagic << '\n';
    bundle.featurizer.SerializeTo(out);
    out << bundle.estimator->Serialize();
    // Write-then-rename, matching SnapshotWriter::WriteToFile: the
    // common `apply --model m --out m` cycle must never destroy the
    // previous good model on a crash or full disk.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
      if (!file) return Status::InvalidArgument("cannot write: " + tmp);
      file << out.str();
      file.flush();
      if (!file.good()) {
        std::remove(tmp.c_str());
        return Status::Internal("short write to " + tmp);
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::Internal("cannot rename " + tmp + " over " + path);
    }
    return Status::OK();
  }
  ByteWriter featurizer;
  bundle.featurizer.SerializeBinary(featurizer);
  ByteWriter estimator;
  bundle.estimator->SerializeBinary(estimator);
  SnapshotWriter writer;
  writer.AddSection(SectionType::kFeaturizer, featurizer.TakeBytes());
  writer.AddSection(SectionType::kOptHashEstimator, estimator.TakeBytes());
  return writer.WriteToFile(path);
}

Result<SnapshotFormat> DetectFileFormat(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot read: " + path);
  char magic[sizeof(kSnapshotMagic)] = {};
  file.read(magic, sizeof(magic));
  if (file.gcount() >= static_cast<std::streamsize>(sizeof(magic)) &&
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0) {
    return SnapshotFormat::kBinary;
  }
  const std::string text_magic(kTextBundleMagic);
  if (std::string(magic, static_cast<size_t>(file.gcount())) ==
      text_magic.substr(0, sizeof(magic))) {
    return SnapshotFormat::kText;
  }
  return Status::InvalidArgument("not an opthash model or snapshot: " +
                                 path);
}

int32_t MissBucket(const stream::BagOfWordsFeaturizer& featurizer,
                   const ml::Classifier* classifier) {
  if (classifier == nullptr) return -1;
  return classifier->Predict(featurizer.Featurize(""));
}

namespace internal {

Result<BinaryBundleSections> ReadBinaryBundleSections(
    const SnapshotView& view, const std::string& path) {
  const SnapshotSection* featurizer_section =
      view.Find(SectionType::kFeaturizer);
  const SnapshotSection* estimator_section =
      view.Find(SectionType::kOptHashEstimator);
  if (featurizer_section == nullptr || estimator_section == nullptr) {
    return Status::InvalidArgument(
        path +
        " is a snapshot but not a model bundle (featurizer + "
        "estimator sections required)");
  }
  ByteReader in(featurizer_section->payload);
  auto featurizer = stream::BagOfWordsFeaturizer::DeserializeBinary(in);
  if (!featurizer.ok()) return featurizer.status();
  OPTHASH_IO_RETURN_IF_ERROR(in.ExpectFullyConsumed());
  return BinaryBundleSections{std::move(featurizer).value(),
                              estimator_section->payload};
}

Status CheckClassifierFits(const stream::BagOfWordsFeaturizer& featurizer,
                           const ml::Classifier* classifier,
                           const std::string& path) {
  const size_t dim = featurizer.FeatureDim();
  if (classifier != nullptr && classifier->NumFeatures() != dim) {
    return Status::InvalidArgument(
        path + ": classifier reads " +
        std::to_string(classifier->NumFeatures()) +
        " features but the featurizer writes " + std::to_string(dim));
  }
  return Status::OK();
}

}  // namespace internal

BundleQueryEngine::BundleQueryEngine(const ModelBundle& bundle)
    : bundle_(bundle),
      miss_bucket_(MissBucket(bundle.featurizer,
                              bundle.estimator->classifier())) {}

void BundleQueryEngine::EstimateBlock(
    Span<const stream::TraceRecord> queries, Span<double> out) {
  OPTHASH_CHECK_EQ(queries.size(), out.size());
  const core::OptHashEstimator& estimator = *bundle_.estimator;
  const core::LearnedTable table = estimator.table();
  const core::BucketCounters counters = estimator.bucket_counters();
  ids_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) ids_[i] = queries[i].id;
  core::EstimateStoredIds(table, counters, miss_bucket_, ids_, out);
  if (estimator.classifier() == nullptr) return;
  // A texted miss is routed by its own features instead.
  std::vector<size_t>& texted = workspace_.pending;
  texted.clear();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!queries[i].text.empty() && table.Find(ids_[i]) < 0) {
      texted.push_back(i);
    }
  }
  if (texted.empty()) return;
  const size_t dim = bundle_.featurizer.FeatureDim();
  workspace_.features.Reshape(texted.size(), dim);
  for (size_t p = 0; p < texted.size(); ++p) {
    bundle_.featurizer.Featurize(
        queries[texted[p]].text,
        Span<double>(workspace_.features.Row(p), dim));
  }
  workspace_.buckets.resize(queries.size());
  estimator.ClassifyPendingRows(workspace_);
  for (const size_t i : texted) {
    out[i] = counters.Average(workspace_.buckets[i]);
  }
}

Result<MappedEstimatorView> MappedEstimatorView::FromMapping(
    MappedSnapshot snapshot, const std::string& path) {
  auto sections = internal::ReadBinaryBundleSections(snapshot.view(), path);
  if (!sections.ok()) return sections.status();
  const Span<const uint8_t> payload = sections.value().estimator;
  // Header fields per docs/FORMATS.md §3.7, then the columns freq[B] f64,
  // count[B] f64, ids[T] u64, buckets[T] i32, then the classifier.
  ByteReader in(payload);
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != 1) {
    return Status::InvalidArgument(
        "unsupported estimator payload version " + std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(kind, in.ReadU32());
  OPTHASH_IO_ASSIGN(num_buckets, in.ReadU64());
  OPTHASH_IO_ASSIGN(table_size, in.ReadU64());
  const size_t body = in.remaining();
  if (num_buckets == 0 || num_buckets > body / (2 * sizeof(double)) ||
      table_size > (body - 2 * sizeof(double) * num_buckets) /
                       (sizeof(uint64_t) + sizeof(int32_t))) {
    return Status::InvalidArgument(
        "estimator geometry disagrees with payload size");
  }
  MappedEstimatorView view;
  const auto buckets = static_cast<size_t>(num_buckets);
  const auto stored = static_cast<size_t>(table_size);
  if (HostIsLittleEndian()) {
    // Section payloads are 8-aligned in the mapping (docs/FORMATS.md), so
    // every column is a host-order array in place.
    const auto* freq =
        reinterpret_cast<const double*>(payload.data() + in.offset());
    view.counters_ = {freq, freq + buckets, buckets};
    const auto* ids = reinterpret_cast<const uint64_t*>(freq + 2 * buckets);
    view.table_ = core::LearnedTable(
        ids, reinterpret_cast<const int32_t*>(ids + stored), stored);
    OPTHASH_IO_RETURN_IF_ERROR(
        in.ReadSpan(2 * sizeof(double) * buckets +
                    (sizeof(uint64_t) + sizeof(int32_t)) * stored)
            .status());
  } else {
    OPTHASH_IO_RETURN_IF_ERROR(in.ReadDoubleArray(view.decoded_freq_, buckets));
    OPTHASH_IO_RETURN_IF_ERROR(
        in.ReadDoubleArray(view.decoded_count_, buckets));
    OPTHASH_IO_RETURN_IF_ERROR(in.ReadU64Array(view.decoded_ids_, stored));
    OPTHASH_IO_RETURN_IF_ERROR(in.ReadI32Array(view.decoded_buckets_, stored));
    view.counters_ = {view.decoded_freq_.data(), view.decoded_count_.data(),
                      buckets};
    view.table_ = core::LearnedTable(view.decoded_ids_.data(),
                                     view.decoded_buckets_.data(), stored);
  }
  // The classifier is parsed and checked as the full load does, used once
  // for the miss bucket, and dropped.
  OPTHASH_IO_RETURN_IF_ERROR(in.AlignTo(8));
  auto classifier = core::DeserializeClassifierBinary(kind, num_buckets, in);
  if (!classifier.ok()) return classifier.status();
  OPTHASH_IO_RETURN_IF_ERROR(in.ExpectFullyConsumed());
  const stream::BagOfWordsFeaturizer& featurizer = sections.value().featurizer;
  OPTHASH_IO_RETURN_IF_ERROR(internal::CheckClassifierFits(
      featurizer, classifier.value().get(), path));
  view.miss_bucket_ = MissBucket(featurizer, classifier.value().get());
  view.snapshot_ = std::move(snapshot);
  return view;
}

}  // namespace opthash::io
