#include "io/artifact.h"

#include <fstream>
#include <sstream>

namespace opthash::io {
namespace {

Result<ModelBundle> LoadTextBundle(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot read: " + path);
  std::string magic;
  file >> magic;
  if (magic != kTextBundleMagic) {
    return Status::InvalidArgument("not an opthash model bundle: " + path);
  }
  auto featurizer = stream::BagOfWordsFeaturizer::DeserializeFrom(file);
  if (!featurizer.ok()) return featurizer.status();
  std::stringstream rest;
  rest << file.rdbuf();
  auto estimator = core::OptHashEstimator::Deserialize(rest.str());
  if (!estimator.ok()) return estimator.status();
  ModelBundle bundle;
  bundle.featurizer = std::move(featurizer).value();
  bundle.estimator = std::move(estimator).value();
  return bundle;
}

Result<ModelBundle> LoadBinaryBundle(const SnapshotView& view,
                                     const std::string& path) {
  auto sections = internal::ReadBinaryBundleSections(view, path);
  if (!sections.ok()) return sections.status();
  ByteReader estimator_in(sections.value().estimator);
  auto estimator = core::OptHashEstimator::DeserializeBinary(estimator_in);
  if (!estimator.ok()) return estimator.status();
  OPTHASH_IO_RETURN_IF_ERROR(estimator_in.ExpectFullyConsumed());
  ModelBundle bundle;
  bundle.featurizer = std::move(sections.value().featurizer);
  bundle.estimator = std::move(estimator).value();
  return bundle;
}

// A single section of a table kind or a windowed ring.
bool IsCheckpoint(const std::vector<SnapshotSection>& sections) {
  return sections.size() == 1 &&
         (sections.front().type == SectionType::kWindowedSketch ||
          VisitSketchKind(sections.front().type, [](auto) { return true; })
              .has_value());
}

}  // namespace

namespace internal {

Result<OpenedArtifact> OpenArtifact(const std::string& path, bool use_mmap) {
  auto format = DetectFileFormat(path);
  if (!format.ok()) return format.status();
  OpenedArtifact opened;
  if (format.value() == SnapshotFormat::kText) {
    auto bundle = LoadTextBundle(path);
    if (!bundle.ok()) return bundle.status();
    OPTHASH_IO_RETURN_IF_ERROR(CheckClassifierFits(
        bundle.value().featurizer, bundle.value().estimator->classifier(),
        path));
    opened.bundle = std::move(bundle).value();
    return opened;
  }
  if (use_mmap) {
    auto mapping = MappedSnapshot::Open(path);
    if (!mapping.ok()) return mapping.status();
    opened.mapping = std::move(mapping).value();
  } else {
    auto reader = SnapshotReader::Open(path);
    if (!reader.ok()) return reader.status();
    opened.reader = std::move(reader).value();
  }
  const SnapshotView& view =
      use_mmap ? opened.mapping->view() : opened.reader->view();
  if (IsCheckpoint(view.sections())) {
    const SnapshotSection& section = view.sections().front();
    opened.payload = section.payload;
    opened.sketch = section.type;
    opened.windowed = section.type == SectionType::kWindowedSketch;
    if (opened.windowed) {
      auto inner = PeekWindowedInnerType(section.payload);
      if (!inner.ok()) return inner.status();
      opened.sketch = inner.value();
    }
    return opened;
  }
  if (use_mmap) {
    auto bundle =
        MappedEstimatorView::FromMapping(std::move(*opened.mapping), path);
    if (!bundle.ok()) return bundle.status();
    opened.mapped_bundle = std::move(bundle).value();
  } else {
    auto bundle = LoadBinaryBundle(view, path);
    if (!bundle.ok()) return bundle.status();
    OPTHASH_IO_RETURN_IF_ERROR(CheckClassifierFits(
        bundle.value().featurizer, bundle.value().estimator->classifier(),
        path));
    opened.bundle = std::move(bundle).value();
  }
  // The bundle owns (or maps) everything it needs; drop the file bytes.
  opened.reader.reset();
  opened.mapping.reset();
  return opened;
}

}  // namespace internal

Result<ModelBundle> LoadModelBundle(const std::string& path) {
  auto opened = internal::OpenArtifact(path, /*use_mmap=*/false);
  if (!opened.ok()) return opened.status();
  if (!opened.value().bundle.has_value()) {
    return Status::InvalidArgument(
        path + " is a sketch checkpoint, not a model bundle");
  }
  return std::move(*opened.value().bundle);
}

}  // namespace opthash::io
