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

namespace {
// The blank payload featurizes to the same row on every call, so the
// classifier's bucket for it is a constant of the bundle.
int32_t BlankPayloadBucket(const ModelBundle& bundle) {
  OPTHASH_CHECK_MSG(bundle.estimator.has_value(),
                    "BundleQueryEngine needs a bundle with an estimator");
  if (bundle.estimator->classifier() == nullptr) {
    return core::OptHashEstimator::kClassifyMiss;  // Never consulted.
  }
  return bundle.estimator->ClassifierBucket(bundle.featurizer.Featurize(""));
}
}  // namespace

BundleQueryEngine::BundleQueryEngine(const ModelBundle& bundle)
    : bundle_(bundle), blank_bucket_(BlankPayloadBucket(bundle)) {}

void BundleQueryEngine::EstimateBlock(
    Span<const stream::TraceRecord> queries, Span<double> out) {
  OPTHASH_CHECK_EQ(queries.size(), out.size());
  ids_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) ids_[i] = queries[i].id;
  // The lazy path probes the table once per id and routes the misses row
  // by row: blank ones take the precomputed bucket, texted ones featurize
  // straight into the workspace's matrix for one batched classification.
  bundle_.estimator->EstimateBatchLazy(
      Span<const uint64_t>(ids_.data(), ids_.size()),
      bundle_.featurizer.FeatureDim(), out, workspace_,
      [this, &queries](size_t i) {
        return queries[i].text.empty()
                   ? blank_bucket_
                   : core::OptHashEstimator::kClassifyMiss;
      },
      [this, &queries](size_t i, Span<double> row) {
        bundle_.featurizer.Featurize(queries[i].text, row);
      });
}

Result<MappedEstimatorView> MappedEstimatorView::FromMapping(
    MappedSnapshot snapshot, const std::string& path) {
  const SnapshotSection* section =
      snapshot.view().Find(SectionType::kOptHashEstimator);
  if (section == nullptr) {
    return Status::InvalidArgument(path + " holds no estimator section");
  }
  // Header fields per docs/FORMATS.md §3.7, then the columns freq[B] f64,
  // count[B] f64, ids[T] u64, buckets[T] i32.
  ByteReader in(section->payload);
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != 1) {
    return Status::InvalidArgument(
        "unsupported estimator payload version " + std::to_string(version));
  }
  OPTHASH_IO_RETURN_IF_ERROR(in.ReadU32().status());  // Classifier kind.
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
        reinterpret_cast<const double*>(section->payload.data() + in.offset());
    view.counters_ = {freq, freq + buckets, buckets};
    const auto* ids = reinterpret_cast<const uint64_t*>(freq + 2 * buckets);
    view.table_ = core::LearnedTable(
        ids, reinterpret_cast<const int32_t*>(ids + stored), stored);
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
  view.snapshot_ = std::move(snapshot);
  return view;
}

}  // namespace opthash::io
