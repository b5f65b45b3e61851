// Tests for the model-bundle persistence layer (src/io/model_io.h): text
// and binary round trips must reproduce byte-identical query answers,
// formats must auto-detect, and the mmap-backed estimator view must agree
// with the fully deserialized estimator on key-only queries.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact_test_util.h"
#include "core/opt_hash_estimator.h"
#include "io/model_io.h"

namespace opthash::io {
namespace {

ModelBundle TrainedBundle(core::ClassifierKind classifier, uint64_t seed) {
  core::OptHashConfig config;
  config.total_buckets = 50;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = classifier;
  config.seed = seed;
  ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(16);
  bundle.featurizer.Fit({{"alpha beta", 5.0},
                         {"beta gamma", 3.0},
                         {"delta", 1.0}});
  // The prefix features come from the bundle's own featurizer, exactly as
  // the CLI train path builds them — heavy ids carry "alpha"-ish queries,
  // light ids "delta"-ish ones, so classifiers have signal to fit.
  std::vector<core::PrefixElement> prefix;
  for (uint64_t i = 0; i < 15; ++i) {
    prefix.push_back({.id = 100 + i,
                      .frequency = 40.0 + static_cast<double>(i),
                      .features = bundle.featurizer.Featurize(
                          i % 2 == 0 ? "alpha beta" : "beta gamma alpha")});
  }
  for (uint64_t i = 0; i < 15; ++i) {
    prefix.push_back({.id = 300 + i,
                      .frequency = 2.0,
                      .features = bundle.featurizer.Featurize(
                          i % 2 == 0 ? "delta" : "delta delta")});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  EXPECT_TRUE(trained.ok());
  bundle.estimator = std::move(trained).value();
  return bundle;
}

void ExpectSameAnswers(const ModelBundle& a, const ModelBundle& b) {
  ASSERT_EQ(a.featurizer.VocabularySize(), b.featurizer.VocabularySize());
  for (uint64_t id : {100u, 107u, 300u, 314u}) {
    const stream::StreamItem item{id, nullptr};
    EXPECT_DOUBLE_EQ(a.estimator->Estimate(item),
                     b.estimator->Estimate(item))
        << id;
  }
  for (const char* text : {"alpha beta", "delta nine", ""}) {
    const std::vector<double> fa = a.featurizer.Featurize(text);
    const std::vector<double> fb = b.featurizer.Featurize(text);
    EXPECT_EQ(fa, fb);
    const stream::StreamItem qa{424242, &fa};
    const stream::StreamItem qb{424242, &fb};
    EXPECT_DOUBLE_EQ(a.estimator->Estimate(qa), b.estimator->Estimate(qb));
  }
}

class ModelIoFormatSweep
    : public ::testing::TestWithParam<core::ClassifierKind> {
 protected:
  // Parameterized instances run concurrently under `ctest -j`; the path
  // must be unique per instance or they overwrite each other's files.
  std::string UniquePath(const char* stem) {
    return ::testing::TempDir() + "/" + stem +
           std::to_string(static_cast<int>(GetParam()));
  }
};

TEST_P(ModelIoFormatSweep, BinaryRoundTripAnswersIdentically) {
  const ModelBundle bundle = TrainedBundle(GetParam(), 21);
  const std::string path = UniquePath("model_io_binary_");
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kBinary).ok());
  auto format = DetectFileFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format.value(), SnapshotFormat::kBinary);
  // A binary bundle is a two-section container: featurizer + estimator
  // (the classifier rides inside the estimator payload, not as its own
  // section) — pinned so a layout change is a deliberate act.
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<SectionType> sections;
  for (const SnapshotSection& section : reader.value().view().sections()) {
    sections.push_back(section.type);
  }
  EXPECT_EQ(sections, (std::vector<SectionType>{
                          SectionType::kFeaturizer,
                          SectionType::kOptHashEstimator}));
  auto loaded = LoadModelBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameAnswers(bundle, loaded.value());
}

TEST_P(ModelIoFormatSweep, TextRoundTripAnswersIdentically) {
  const ModelBundle bundle = TrainedBundle(GetParam(), 22);
  const std::string path = UniquePath("model_io_text_");
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kText).ok());
  auto format = DetectFileFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format.value(), SnapshotFormat::kText);
  auto loaded = LoadModelBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameAnswers(bundle, loaded.value());
}

INSTANTIATE_TEST_SUITE_P(
    Classifiers, ModelIoFormatSweep,
    ::testing::Values(core::ClassifierKind::kNone,
                      core::ClassifierKind::kLogisticRegression,
                      core::ClassifierKind::kCart,
                      core::ClassifierKind::kRandomForest));

TEST(ModelIoTest, BinaryEstimatorPayloadIsDeterministic) {
  const ModelBundle a = TrainedBundle(core::ClassifierKind::kCart, 30);
  const ModelBundle b = TrainedBundle(core::ClassifierKind::kCart, 30);
  ByteWriter wa;
  ByteWriter wb;
  a.estimator->SerializeBinary(wa);
  b.estimator->SerializeBinary(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(ModelIoTest, DetectRejectsForeignFiles) {
  const std::string path = ::testing::TempDir() + "/model_io_foreign.txt";
  std::ofstream(path) << "definitely not a model";
  EXPECT_FALSE(DetectFileFormat(path).ok());
  EXPECT_FALSE(LoadModelBundle(path).ok());
  EXPECT_FALSE(DetectFileFormat(::testing::TempDir() + "/missing.bin").ok());
}

TEST(ModelIoTest, BinaryLoadRejectsCorruption) {
  const ModelBundle bundle = TrainedBundle(core::ClassifierKind::kCart, 23);
  const std::string path = ::testing::TempDir() + "/model_io_corrupt.bin";
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kBinary).ok());
  // Flip a byte near the end (inside the estimator payload).
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-3, std::ios::end);
    file.put('\x55');
  }
  auto loaded = LoadModelBundle(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
}

TEST(ModelIoTest, BinaryTreeRejectsOutOfRangeLabel) {
  // A crafted single-leaf tree whose label exceeds num_classes must be
  // rejected at load, not abort Predict's bounds CHECK later.
  ByteWriter out;
  out.WriteU32(1);  // payload version
  out.WriteU32(0);  // reserved
  out.WriteU64(1);  // num_features
  out.WriteU64(2);  // num_classes
  out.WriteU64(1);  // node_count
  out.WriteU64(0);  // node: feature
  out.WriteDouble(0.0);
  out.WriteI32(-1);  // left
  out.WriteI32(-1);  // right
  out.WriteI32(7);   // label >= num_classes
  out.WriteU32(1);   // flags: leaf
  out.WriteDouble(0.0);
  out.WriteU64(1);  // num_samples
  ByteReader in(out.bytes().data(), out.size());
  EXPECT_FALSE(ml::DecisionTree::DeserializeBinary(in).ok());
}

TEST(ModelIoTest, BinaryTreeRejectsSelfReferentialNode) {
  // An internal node pointing at itself (a cycle) would hang Predict;
  // the child-follows-parent format invariant makes it rejectable.
  ByteWriter out;
  out.WriteU32(1);
  out.WriteU32(0);
  out.WriteU64(1);  // num_features
  out.WriteU64(2);  // num_classes
  out.WriteU64(1);  // node_count
  out.WriteU64(0);  // node: feature
  out.WriteDouble(0.5);
  out.WriteI32(0);  // left = self
  out.WriteI32(0);  // right = self
  out.WriteI32(0);  // label
  out.WriteU32(0);  // flags: internal
  out.WriteDouble(0.0);
  out.WriteU64(2);
  ByteReader in(out.bytes().data(), out.size());
  EXPECT_FALSE(ml::DecisionTree::DeserializeBinary(in).ok());
}

TEST(ModelIoTest, SketchSnapshotIsNotABundle) {
  // A single-sketch checkpoint is a valid snapshot but not a model bundle.
  SnapshotWriter writer;
  writer.AddSection(SectionType::kCountMinSketch, {0, 0, 0, 0});
  const std::string path = ::testing::TempDir() + "/model_io_sketch.bin";
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  auto loaded = LoadModelBundle(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bundle"), std::string::npos);
}

TEST(ModelIoTest, DeserializedBundleKeepsCounting) {
  const ModelBundle bundle = TrainedBundle(core::ClassifierKind::kNone, 24);
  const std::string path = ::testing::TempDir() + "/model_io_counting.bin";
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kBinary).ok());
  auto loaded = LoadModelBundle(path);
  ASSERT_TRUE(loaded.ok());
  core::OptHashEstimator& live = *loaded.value().estimator;
  const stream::StreamItem item{100, nullptr};
  const double before = live.Estimate(item);
  const auto bucket = static_cast<size_t>(live.BucketOf(item));
  for (int rep = 0; rep < 8; ++rep) live.Update(item);
  EXPECT_NEAR(live.Estimate(item), before + 8.0 / live.BucketCount(bucket),
              1e-9);
}

// ---- Load-time shape checks: a classifier must fit its bundle. ----------
// Crafted payloads use single-leaf trees voting a fixed label, in the
// text and the binary encoding.

std::string LeafTreeText(size_t features, size_t classes, int label) {
  return "opthash.cart.v1 " + std::to_string(features) + " " +
         std::to_string(classes) + " 1\n1 0 0 -1 -1 " +
         std::to_string(label) + " 0 1\n";
}

void WriteLeafTree(ByteWriter& out, uint64_t features, uint64_t classes,
                   int32_t label) {
  out.WriteU32(1);  // payload version
  out.WriteU32(0);  // reserved
  out.WriteU64(features);
  out.WriteU64(classes);
  out.WriteU64(1);  // node_count
  out.WriteU64(0);  // node: feature
  out.WriteDouble(0.0);
  out.WriteI32(-1);  // left
  out.WriteI32(-1);  // right
  out.WriteI32(label);
  out.WriteU32(1);  // flags: leaf
  out.WriteDouble(0.0);
  out.WriteU64(1);  // num_samples
}

// A forest of `features` x `classes` holding one tree of the given shape.
Status LoadForestText(size_t features, size_t classes, size_t tree_features,
                      size_t tree_classes) {
  return ml::RandomForest::Deserialize(
             "opthash.rf.v1 " + std::to_string(classes) + " " +
             std::to_string(features) + " 1\n" +
             LeafTreeText(tree_features, tree_classes, 0))
      .status();
}

Status LoadForestBinary(size_t features, size_t classes, size_t tree_features,
                        size_t tree_classes) {
  ByteWriter out;
  out.WriteU32(1);  // payload version
  out.WriteU32(0);  // reserved
  out.WriteU64(classes);
  out.WriteU64(features);
  out.WriteU64(1);  // num_trees
  WriteLeafTree(out, tree_features, tree_classes, 0);
  ByteReader in(out.bytes().data(), out.size());
  return ml::RandomForest::DeserializeBinary(in).status();
}

TEST(ModelIoTest, ForestRejectsTreeThatDisagreesWithItsForest) {
  for (const auto load : {LoadForestText, LoadForestBinary}) {
    // A tree reading more features than the forest's rows hold would read
    // past every row; fewer is just as corrupt.
    EXPECT_FALSE(load(2, 3, 3, 3).ok());
    EXPECT_FALSE(load(2, 3, 1, 3).ok());
    // A tree voting past the forest's classes.
    EXPECT_FALSE(load(2, 3, 2, 5).ok());
    // A bootstrap sample can miss the highest label, so a tree with fewer
    // classes than its forest is a valid trained shape.
    EXPECT_TRUE(load(2, 3, 2, 2).ok());
    EXPECT_TRUE(load(2, 3, 2, 3).ok());
  }
}

TEST(ModelIoTest, TextTreeRejectsOutOfRangeLabel) {
  EXPECT_FALSE(ml::DecisionTree::Deserialize(LeafTreeText(1, 2, 7)).ok());
  EXPECT_FALSE(ml::DecisionTree::Deserialize(LeafTreeText(1, 2, -1)).ok());
  EXPECT_TRUE(ml::DecisionTree::Deserialize(LeafTreeText(1, 2, 1)).ok());
}

// An estimator of `buckets` buckets, no stored ids, whose cart classifier
// predicts `classes` classes.
Status LoadCartEstimatorText(size_t buckets, size_t classes) {
  std::string blob =
      "opthash.estimator.v1 " + std::to_string(buckets) + " 0 cart\n";
  for (int array = 0; array < 2; ++array) {
    for (size_t j = 0; j < buckets; ++j) blob += "1 ";
    blob += "\n";
  }
  return core::OptHashEstimator::Deserialize(blob + LeafTreeText(1, classes, 0))
      .status();
}

// The binary payload of that estimator, its tree reading `features`-long
// rows.
std::vector<uint8_t> CartEstimatorPayload(size_t buckets, size_t classes,
                                          size_t features) {
  ByteWriter tree;
  WriteLeafTree(tree, features, classes, 0);
  ByteWriter out;
  out.WriteU32(1);  // payload version
  out.WriteU32(static_cast<uint32_t>(core::ClassifierKind::kCart));
  out.WriteU64(buckets);
  out.WriteU64(0);  // table_size
  const std::vector<double> ones(buckets, 1.0);
  out.WriteDoubleArray(ones);  // phi_j
  out.WriteDoubleArray(ones);  // c_j
  out.AlignTo(8);
  out.WriteU64(tree.size());
  out.WriteBytes(tree.bytes().data(), tree.size());
  return out.TakeBytes();
}

Status LoadCartEstimatorBinary(size_t buckets, size_t classes) {
  const std::vector<uint8_t> payload = CartEstimatorPayload(buckets, classes, 1);
  ByteReader in(payload.data(), payload.size());
  return core::OptHashEstimator::DeserializeBinary(in).status();
}

// The same estimator in a binary bundle whose featurizer writes the rows
// its tree reads, opened mapped.
Status LoadCartBundleMapped(size_t buckets, size_t classes) {
  stream::BagOfWordsFeaturizer featurizer(16);
  featurizer.Fit({{"alpha beta", 1.0}});
  ByteWriter featurizer_bytes;
  featurizer.SerializeBinary(featurizer_bytes);
  SnapshotWriter writer;
  writer.AddSection(SectionType::kFeaturizer, featurizer_bytes.TakeBytes());
  writer.AddSection(
      SectionType::kOptHashEstimator,
      CartEstimatorPayload(buckets, classes, featurizer.FeatureDim()));
  const std::string path = ::testing::TempDir() + "/model_io_cart_" +
                           std::to_string(buckets) + "_" +
                           std::to_string(classes) + ".bin";
  const Status written = writer.WriteToFile(path);
  if (!written.ok()) return written;
  return testutil::OpenArtifactAs<MappedEstimatorView>(path, /*use_mmap=*/true)
      .status();
}

TEST(ModelIoTest, EstimatorRejectsClassifierWithMoreClassesThanBuckets) {
  for (const auto load : {LoadCartEstimatorText, LoadCartEstimatorBinary,
                          LoadCartBundleMapped}) {
    const Status rejected = load(2, 5);
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.message().find("buckets"), std::string::npos)
        << rejected.ToString();
    EXPECT_TRUE(load(2, 2).ok());
    EXPECT_TRUE(load(4, 2).ok());
  }
}

// Loads a text bundle whose two-entry learned table lists `first`, then
// `second`.
Status LoadTextBundleWithTable(uint64_t first, uint64_t second) {
  std::ostringstream text;
  text << "opthash.bundle.v1\n";
  stream::BagOfWordsFeaturizer featurizer(16);
  featurizer.Fit({{"alpha beta", 1.0}});
  featurizer.SerializeTo(text);
  text << "opthash.estimator.v1 2 2 none\n1 1 \n1 1 \n"
       << first << " 0\n" << second << " 1\n";
  const std::string path = ::testing::TempDir() + "/model_io_table_" +
                           std::to_string(first) + "_" +
                           std::to_string(second) + ".txt";
  std::ofstream(path, std::ios::binary) << text.str();
  return LoadModelBundle(path).status();
}

TEST(ModelIoTest, TextLoadRejectsRepeatedOrUnsortedTableIds) {
  EXPECT_TRUE(LoadTextBundleWithTable(5, 6).ok());
  for (const auto& [first, second] : {std::pair<uint64_t, uint64_t>{5, 5},
                                      std::pair<uint64_t, uint64_t>{6, 5}}) {
    const Status rejected = LoadTextBundleWithTable(first, second);
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
        << first << " then " << second;
    EXPECT_NE(rejected.message().find("strictly ascending"),
              std::string::npos)
        << rejected.ToString();
  }
}

TEST(ModelIoTest, LoadRejectsClassifierReadingOtherThanFeaturizerRows) {
  // The estimator's classifier learns 1-feature rows, but the featurizer
  // writes longer ones: every miss would abort in Predict.
  for (const auto classifier :
       {core::ClassifierKind::kLogisticRegression, core::ClassifierKind::kCart,
        core::ClassifierKind::kRandomForest}) {
    core::OptHashConfig config;
    config.total_buckets = 40;
    config.id_ratio = 0.5;
    config.solver = core::SolverKind::kDp;
    config.classifier = classifier;
    std::vector<core::PrefixElement> prefix;
    for (uint64_t i = 0; i < 24; ++i) {
      prefix.push_back({.id = 100 + i,
                        .frequency = i < 12 ? 50.0 : 3.0,
                        .features = {i < 12 ? 2.0 : -2.0}});
    }
    auto trained = core::OptHashEstimator::Train(config, prefix);
    ASSERT_TRUE(trained.ok());
    ModelBundle bundle;
    bundle.featurizer = stream::BagOfWordsFeaturizer(16);
    bundle.featurizer.Fit({{"alpha beta", 5.0}});
    bundle.estimator = std::move(trained).value();
    ASSERT_NE(bundle.featurizer.FeatureDim(), 1u);
    for (const auto format : {SnapshotFormat::kText, SnapshotFormat::kBinary}) {
      const std::string path =
          ::testing::TempDir() + "/model_io_dim_" +
          core::ClassifierKindName(classifier) + "." +
          SnapshotFormatName(format);
      ASSERT_TRUE(SaveModelBundle(path, bundle, format).ok());
      auto loaded = LoadModelBundle(path);
      ASSERT_FALSE(loaded.ok()) << path;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find("features"), std::string::npos)
          << loaded.status().ToString();
      if (format == SnapshotFormat::kBinary) {
        // The mapped open parses the classifier too, and rejects the same.
        auto mapped = testutil::OpenArtifactAs<MappedEstimatorView>(
            path, /*use_mmap=*/true);
        ASSERT_FALSE(mapped.ok()) << path;
        EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(mapped.status().message().find("features"),
                  std::string::npos)
            << mapped.status().ToString();
      }
    }
  }
}

TEST(MappedEstimatorViewTest, StoredIdQueriesMatchFullLoad) {
  const ModelBundle bundle =
      TrainedBundle(core::ClassifierKind::kRandomForest, 25);
  const std::string path = ::testing::TempDir() + "/model_io_mapped.bin";
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kBinary).ok());

  auto view = testutil::OpenArtifactAs<MappedEstimatorView>(path,
                                                           /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().num_buckets(), bundle.estimator->num_buckets());
  EXPECT_EQ(view.value().num_stored_ids(),
            bundle.estimator->num_stored_ids());
  // A key-only query is a blank-text one, hit or miss.
  const std::vector<double> blank = bundle.featurizer.Featurize("");
  for (uint64_t id = 90; id < 330; ++id) {
    const stream::StreamItem item{id, &blank};
    EXPECT_EQ(view.value().BucketOf(id), bundle.estimator->BucketOf(item))
        << id;
    EXPECT_DOUBLE_EQ(view.value().Estimate(id),
                     bundle.estimator->Estimate(item))
        << id;
  }
  // Ids outside the table read the miss bucket: the classifier's bucket
  // for the blank payload, as in the full load.
  const stream::StreamItem unseen{987654321, &blank};
  EXPECT_GE(view.value().miss_bucket(), 0);
  EXPECT_EQ(view.value().BucketOf(987654321), view.value().miss_bucket());
  EXPECT_EQ(view.value().BucketOf(987654321),
            bundle.estimator->BucketOf(unseen));
  EXPECT_EQ(view.value().Estimate(987654321),
            bundle.estimator->Estimate(unseen));
}

TEST(MappedEstimatorViewTest, FlippedCounterByteIsSeenOnlyByTheCrcCheck) {
  const ModelBundle bundle =
      TrainedBundle(core::ClassifierKind::kRandomForest, 27);
  const std::string path = ::testing::TempDir() + "/model_io_flipped.bin";
  ASSERT_TRUE(SaveModelBundle(path, bundle, SnapshotFormat::kBinary).ok());
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  auto parsed = SnapshotView::Parse(Span<const uint8_t>(bytes));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SnapshotSection* section =
      parsed.value().Find(SectionType::kOptHashEstimator);
  ASSERT_NE(section, nullptr);
  // phi_0's low mantissa byte, after the version, kind, B and T fields.
  const auto at = static_cast<size_t>(section->payload.data() - bytes.data());
  bytes[at + 24] ^= 0x01;
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));

  // The mapped open checks no payload CRC: it opens and answers.
  auto view = testutil::OpenArtifactAs<MappedEstimatorView>(path,
                                                           /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::vector<double> blank = bundle.featurizer.Featurize("");
  for (uint64_t id = 90; id < 330; ++id) {
    if (view.value().BucketOf(id) == 0) continue;  // Reads the damage.
    EXPECT_EQ(view.value().Estimate(id),
              bundle.estimator->Estimate({id, &blank}))
        << id;
  }
  // Only the CRC check sees the damage; the full load runs it.
  auto mapping = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  EXPECT_FALSE(mapping.value().view().VerifyPayloadCrcs().ok());
  EXPECT_FALSE(LoadModelBundle(path).ok());
}

TEST(MappedEstimatorViewTest, RejectsTextBundlesAndSketchSnapshots) {
  const ModelBundle bundle = TrainedBundle(core::ClassifierKind::kNone, 26);
  const std::string text_path = ::testing::TempDir() + "/model_io_v_t.txt";
  ASSERT_TRUE(SaveModelBundle(text_path, bundle, SnapshotFormat::kText).ok());
  EXPECT_FALSE(MappedSnapshot::Open(text_path).ok());

  SnapshotWriter writer;
  writer.AddSection(SectionType::kMisraGries, {0, 0, 0, 0});
  const std::string sketch_path = ::testing::TempDir() + "/model_io_v_s.bin";
  ASSERT_TRUE(writer.WriteToFile(sketch_path).ok());
  auto mapping = MappedSnapshot::Open(sketch_path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  EXPECT_FALSE(
      MappedEstimatorView::FromMapping(std::move(mapping).value(), sketch_path)
          .ok());
}

}  // namespace
}  // namespace opthash::io
