// OpenServedModel across every artifact the CLI writes: each sketch-kind
// row, plain and (where windowable) windowed, plus text and binary model
// bundles, each opened with and without mmap. Only plain count-min
// checkpoints and binary bundles map; AMS is refused; every other open is
// a full load. Every served answer equals the object the file was
// written from. An rf bundle pins the one key-only miss rule in both open
// modes, and its write side (ingest, snapshot, top-k) round-trips through
// a reopen in both.

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/model_io.h"
#include "io/sketch_kinds.h"
#include "io/sketch_snapshot.h"
#include "io/windowed_snapshot.h"
#include "server/served_model.h"
#include "sketch/estimate_as_double.h"
#include "sketch/windowed_sketch.h"

namespace opthash::server {
namespace {

struct Artifact {
  std::string name;
  std::string path;
  bool per_key = true;  // False: refused at open (AMS).
  bool maps = false;    // Served from the mapping on an mmap open.
  std::string kind;     // ServedModel::Kind() of the full load...
  std::string mapped_kind;  // ...and of the mapped one.
  std::vector<double> expected;  // Answers for Keys().
};

std::string PathFor(const std::string& name) {
  return ::testing::TempDir() + "/served_model_" + name + ".bin";
}

std::vector<uint64_t> Arrivals() {
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < 600; ++i) ids.push_back(i % 7 == 0 ? i : i % 23);
  return ids;
}

// Stored and heavy ids, light ones and ids that never arrived.
std::vector<uint64_t> Keys() {
  std::vector<uint64_t> keys;
  for (uint64_t id = 0; id < 60; ++id) keys.push_back(id);
  for (uint64_t id = 5000; id < 5010; ++id) keys.push_back(id);
  return keys;
}

void AddSketchArtifacts(std::vector<Artifact>& out) {
  const std::vector<uint64_t> arrivals = Arrivals();
  const std::vector<uint64_t> keys = Keys();
  io::FreshSketchGeometry geometry;
  geometry.width = 64;
  geometry.depth = 3;
  geometry.capacity = 16;
  geometry.buckets = 64;
  geometry.heavy = 4;
  geometry.prefix = arrivals;
  io::ForEachSketchKind([&](auto row) {
    using Kind = decltype(row);
    using Sketch = typename Kind::Sketch;
    const std::string cli_name = Kind::kInfo.cli_name;
    const std::string kind = io::SketchKindName<Sketch>();
    auto fresh = Kind::MakeFresh(geometry);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    Sketch sketch = fresh.value();
    sketch.UpdateBatch(arrivals);
    Artifact plain{cli_name, PathFor(cli_name), Kind::kInfo.per_key,
                   cli_name == "cms", kind, "mapped-count-min", {}};
    if constexpr (Kind::kInfo.per_key) {
      plain.expected.resize(keys.size());
      sketch::EstimateBatchAsDouble(sketch, keys, plain.expected);
    }
    ASSERT_TRUE(io::SaveSketchSnapshot(plain.path, sketch).ok());
    out.push_back(plain);

    if constexpr (Kind::kInfo.windowable) {
      auto ring = sketch::WindowedSketch<Sketch>::Create(fresh.value(), 3, 150);
      ASSERT_TRUE(ring.ok()) << ring.status().ToString();
      ring.value().UpdateBatch(arrivals);
      const std::string name = "windowed-" + cli_name;
      Artifact windowed{name, PathFor(name), true, false, "windowed-" + kind,
                        "", std::vector<double>(keys.size())};
      ring.value().EstimateBatch(keys, windowed.expected);
      ASSERT_TRUE(
          io::SaveWindowedSketchSnapshot(windowed.path, ring.value()).ok());
      out.push_back(windowed);
    }
  });
}

void AddBundleArtifacts(std::vector<Artifact>& out) {
  // No classifier: a miss answers 0 owned and mapped alike, so every key
  // compares, not only the stored ids.
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(16);
  bundle.featurizer.Fit({{"a", 3.0}});
  core::OptHashConfig config;
  config.total_buckets = 80;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kNone;
  std::vector<core::PrefixElement> prefix;
  for (uint64_t id = 0; id < 40; ++id) {
    prefix.push_back({.id = id, .frequency = 1.0 + id, .features = {0.0}});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  bundle.estimator = std::move(trained).value();
  std::vector<double> expected;
  for (uint64_t id : Keys()) {
    expected.push_back(bundle.estimator->Estimate({id, nullptr}));
  }
  for (const io::SnapshotFormat format :
       {io::SnapshotFormat::kText, io::SnapshotFormat::kBinary}) {
    const std::string name =
        std::string(io::SnapshotFormatName(format)) + "-bundle";
    Artifact artifact{name, PathFor(name), true,
                      format == io::SnapshotFormat::kBinary, "model-bundle",
                      "mapped-model-bundle", expected};
    ASSERT_TRUE(io::SaveModelBundle(artifact.path, bundle, format).ok());
    out.push_back(artifact);
  }
}

TEST(OpenServedModelTest, EveryArtifactKindWithAndWithoutMmap) {
  std::vector<Artifact> artifacts;
  AddSketchArtifacts(artifacts);
  AddBundleArtifacts(artifacts);
  // Six rows, five of them windowable, and two bundle encodings.
  ASSERT_EQ(artifacts.size(), 13u);
  const std::vector<uint64_t> keys = Keys();
  for (const Artifact& artifact : artifacts) {
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(artifact.name + (use_mmap ? ", mmap" : ", full load"));
      auto opened = OpenServedModel(artifact.path, use_mmap);
      if (!artifact.per_key) {
        ASSERT_FALSE(opened.ok());
        EXPECT_NE(opened.status().message().find("AMS"), std::string::npos)
            << opened.status().ToString();
        continue;
      }
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      const bool mapped = use_mmap && artifact.maps;
      EXPECT_EQ(opened.value().mmap_used, mapped);
      const ServedModel& model = *opened.value().model;
      EXPECT_EQ(model.ReadOnly(), mapped);
      EXPECT_EQ(model.Kind(), mapped ? artifact.mapped_kind : artifact.kind);
      auto context = model.NewQueryContext();
      std::vector<double> answers(keys.size());
      model.EstimateBatch(*context, keys, answers);
      EXPECT_EQ(answers, artifact.expected);
    }
  }
}

// A mapped view rejects an ingest without taking the writer lock, so a
// rejected ingest at an --mmap daemon never stalls a reader. The test
// holds the lock itself; an ingest that waited for it would not return.
TEST(OpenServedModelTest, MappedIngestIsRejectedWithoutTheWriterLock) {
  std::vector<Artifact> artifacts;
  AddSketchArtifacts(artifacts);
  AddBundleArtifacts(artifacts);
  const std::vector<uint64_t> keys = Arrivals();
  for (const Artifact& artifact : artifacts) {
    if (!artifact.maps) continue;
    SCOPED_TRACE(artifact.name);
    auto opened = OpenServedModel(artifact.path, /*use_mmap=*/true);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ServedModel& model = *opened.value().model;
    std::shared_mutex writer;
    std::unique_lock<std::shared_mutex> held(writer);
    auto rejected = std::async(std::launch::async, [&] {
      return model.Ingest(keys, stream::ShardedIngestConfig(), writer);
    });
    const bool returned = rejected.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    held.unlock();
    EXPECT_TRUE(returned) << "the rejected ingest waited for the lock";
    const Status status = rejected.get();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
  }
}

// A 10-tree rf bundle over ids 100..249 whose classifier reads the
// featurizer's rows.
io::ModelBundle RfBundle() {
  io::ModelBundle bundle;
  bundle.featurizer = stream::BagOfWordsFeaturizer(32);
  std::vector<std::pair<std::string, double>> corpus;
  for (size_t i = 0; i < 150; ++i) {
    corpus.push_back({"item word" + std::to_string(i % 11),
                      (i % 7 == 0) ? 90.0 + i : 2.0});
  }
  bundle.featurizer.Fit(corpus);
  core::OptHashConfig config;
  config.total_buckets = 200;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kRandomForest;
  config.rf.num_trees = 10;
  std::vector<core::PrefixElement> prefix;
  for (size_t i = 0; i < corpus.size(); ++i) {
    prefix.push_back({.id = 100 + i,
                      .frequency = corpus[i].second,
                      .features = bundle.featurizer.Featurize(
                          corpus[i].first)});
  }
  auto trained = core::OptHashEstimator::Train(config, prefix);
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  bundle.estimator = std::move(trained).value();
  return bundle;
}

// Stored ids and ids on both sides of the table.
std::vector<uint64_t> RfKeys() {
  std::vector<uint64_t> keys;
  for (uint64_t id = 90; id < 280; ++id) keys.push_back(id);
  return keys;
}

std::vector<double> Answers(const ServedModel& model,
                            const std::vector<uint64_t>& keys) {
  auto context = model.NewQueryContext();
  std::vector<double> answers(keys.size());
  model.EstimateBatch(*context, keys, answers);
  return answers;
}

TEST(OpenServedModelTest, RfBundleMissRuleIsTheSameInBothOpenModes) {
  // A learned-table miss answers from the blank-payload bucket whether
  // the bundle is loaded or mapped, like a blank-text row of
  // `opthash_cli query`.
  const io::ModelBundle bundle = RfBundle();
  const std::string path = PathFor("rf-bundle");
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());

  const std::vector<uint64_t> keys = RfKeys();
  const std::vector<double> blank = bundle.featurizer.Featurize("");
  size_t telling_misses = 0;
  for (const uint64_t id : keys) {
    telling_misses += bundle.estimator->table().Find(id) < 0 &&
                      bundle.estimator->Estimate({id, &blank}) !=
                          bundle.estimator->Estimate({id, nullptr});
  }
  ASSERT_GT(telling_misses, 0u) << "no miss tells the rule from answering 0";
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "full load");
    auto opened = OpenServedModel(path, use_mmap);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value().mmap_used, use_mmap);
    const std::vector<double> answers = Answers(*opened.value().model, keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(answers[i], bundle.estimator->Estimate({keys[i], &blank}))
          << "id " << keys[i];
    }
  }
}

TEST(OpenServedModelTest, RfBundleSnapshotReopensWithTheLiveAnswers) {
  io::ModelBundle bundle = RfBundle();
  const std::string path = PathFor("rf-live");
  ASSERT_TRUE(
      io::SaveModelBundle(path, bundle, io::SnapshotFormat::kBinary).ok());
  auto live = OpenServedModel(path, /*use_mmap=*/false);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ServedModel& model = *live.value().model;

  // Arrivals for stored ids and for ids the table does not hold.
  std::vector<uint64_t> block;
  for (uint64_t i = 0; i < 3000; ++i) block.push_back(90 + (i * 7) % 190);
  stream::ShardedIngestConfig config;
  config.num_threads = 2;
  config.block_size = 256;
  ASSERT_TRUE(model.Ingest(block, config).ok());
  const std::string snapshot = PathFor("rf-snapshot");
  ASSERT_TRUE(model.SaveSnapshot(snapshot).ok());

  // The live model against an independent reference: the same arrivals
  // ingested into the bundle, queried with the blank payload.
  ASSERT_TRUE(bundle.estimator->Ingest(block, config).ok());
  const std::vector<uint64_t> keys = RfKeys();
  const std::vector<double> blank = bundle.featurizer.Featurize("");
  const std::vector<double> answers = Answers(model, keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i], bundle.estimator->Estimate({keys[i], &blank}))
        << "id " << keys[i];
  }
  auto context = model.NewQueryContext();
  std::vector<sketch::HeavyHitter> top;
  ASSERT_TRUE(model.SupportsTopK());
  ASSERT_TRUE(model.TopK(*context, 12, top).ok());
  ASSERT_EQ(top.size(), 12u);

  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "full load");
    auto reopened = OpenServedModel(snapshot, use_mmap);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value().mmap_used, use_mmap);
    const ServedModel& again = *reopened.value().model;
    EXPECT_EQ(Answers(again, keys), answers);
    auto again_context = again.NewQueryContext();
    std::vector<sketch::HeavyHitter> again_top;
    ASSERT_TRUE(again.TopK(*again_context, 12, again_top).ok());
    EXPECT_EQ(again_top, top);
  }
  auto loaded = io::LoadModelBundle(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const uint64_t id : keys) {
    EXPECT_EQ(loaded.value().estimator->Estimate({id, &blank}),
              bundle.estimator->Estimate({id, &blank}))
        << "id " << id;
  }
}

TEST(OpenServedModelTest, MmapFallbackStillChecksEveryPayloadCrc) {
  // A kind without a mapped view is loaded fully from the mapping, so a
  // flipped counter byte must fail the open like a plain full load does.
  sketch::CountMinSketch proto(64, 3, 1);
  auto ring = sketch::WindowedSketch<sketch::CountMinSketch>::Create(
      proto, 2, 10);
  ASSERT_TRUE(ring.ok());
  ring.value().UpdateBatch(Arrivals());
  const std::string path = PathFor("corrupt-windowed");
  ASSERT_TRUE(io::SaveWindowedSketchSnapshot(path, ring.value()).ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-1, std::ios::end);
    file.put('\x7F');
  }
  for (const bool use_mmap : {false, true}) {
    auto opened = OpenServedModel(path, use_mmap);
    ASSERT_FALSE(opened.ok()) << "use_mmap " << use_mmap;
    EXPECT_NE(opened.status().message().find("CRC"), std::string::npos)
        << opened.status().ToString();
  }
}

}  // namespace
}  // namespace opthash::server
