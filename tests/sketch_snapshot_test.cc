// Round-trip tests for the binary sketch payloads: a restored sketch must
// answer every query identically to the original, keep ingesting
// correctly (the checkpoint/resume contract), and corrupt snapshots must
// be rejected with a clean Status.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "artifact_test_util.h"
#include "common/random.h"
#include "io/sketch_snapshot.h"

namespace opthash::io {
namespace {

// A deterministic pseudo-Zipf key stream exercising repeats and tail keys.
std::vector<uint64_t> TestStream(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto r = static_cast<uint64_t>(rng.NextUint64());
    keys.push_back(r % ((r % 7 == 0) ? 10000 : 40));
  }
  return keys;
}

// Returns the Result wrapper (not the value) so gcc 12's spurious
// -Wfree-nonheap-object on moving map-backed sketches out of the variant
// never triggers; callers unwrap with .value().
template <typename Sketch>
Result<Sketch> RoundTrip(const Sketch& sketch) {
  ByteWriter out;
  sketch.Serialize(out);
  ByteReader in(out.bytes().data(), out.size());
  auto restored = Sketch::Deserialize(in);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(in.ExpectFullyConsumed().ok());
  return restored;
}

TEST(SketchSnapshotTest, CountMinRoundTrip) {
  sketch::CountMinSketch sketch(128, 4, 17);
  sketch.UpdateBatch(TestStream(5000, 1));
  auto restored_or = RoundTrip(sketch);
  const auto& restored = restored_or.value();
  EXPECT_EQ(restored.total_count(), sketch.total_count());
  EXPECT_EQ(restored.width(), sketch.width());
  EXPECT_EQ(restored.depth(), sketch.depth());
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key)) << key;
  }
}

TEST(SketchSnapshotTest, ConservativeCountMinRoundTripKeepsFlag) {
  sketch::CountMinSketch sketch(64, 3, 5, /*conservative_update=*/true);
  sketch.UpdateBatch(TestStream(2000, 2));
  auto restored_or = RoundTrip(sketch);
  auto& restored = restored_or.value();
  EXPECT_TRUE(restored.conservative_update());
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key));
  }
  // Resumed ingestion must stay conservative: both paths agree afterwards.
  const auto more = TestStream(500, 3);
  sketch.UpdateBatch(more);
  restored.UpdateBatch(more);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key));
  }
}

TEST(SketchSnapshotTest, CountSketchRoundTrip) {
  sketch::CountSketch sketch(128, 5, 23);
  sketch.UpdateBatch(TestStream(5000, 4));
  auto restored_or = RoundTrip(sketch);
  const auto& restored = restored_or.value();
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key)) << key;
  }
}

TEST(SketchSnapshotTest, AmsRoundTrip) {
  sketch::AmsSketch sketch(7, 11, 31);
  sketch.UpdateBatch(TestStream(5000, 5));
  auto restored_or = RoundTrip(sketch);
  const auto& restored = restored_or.value();
  EXPECT_DOUBLE_EQ(restored.EstimateF2(), sketch.EstimateF2());
  EXPECT_EQ(restored.groups(), sketch.groups());
  EXPECT_EQ(restored.estimators_per_group(),
            sketch.estimators_per_group());
}

TEST(SketchSnapshotTest, LearnedCountMinRoundTrip) {
  auto sketch = sketch::LearnedCountMinSketch::Create(
      512, 4, {0, 1, 2, 3, 17}, 9);
  ASSERT_TRUE(sketch.ok());
  sketch.value().UpdateBatch(TestStream(5000, 6));
  auto restored_or = RoundTrip(sketch.value());
  const auto& restored = restored_or.value();
  EXPECT_EQ(restored.heavy_bucket_count(),
            sketch.value().heavy_bucket_count());
  EXPECT_EQ(restored.TotalBuckets(), sketch.value().TotalBuckets());
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.value().Estimate(key)) << key;
  }
}

TEST(SketchSnapshotTest, MisraGriesRoundTrip) {
  sketch::MisraGries sketch(24);
  sketch.UpdateBatch(TestStream(5000, 7));
  auto restored_or = RoundTrip(sketch);
  const auto& restored = restored_or.value();
  EXPECT_EQ(restored.size(), sketch.size());
  EXPECT_EQ(restored.total_count(), sketch.total_count());
  EXPECT_DOUBLE_EQ(restored.ErrorBound(), sketch.ErrorBound());
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key)) << key;
    EXPECT_EQ(restored.IsTracked(key), sketch.IsTracked(key)) << key;
  }
  EXPECT_EQ(restored.HeavyEntries(), sketch.HeavyEntries());
}

TEST(SketchSnapshotTest, SpaceSavingRoundTrip) {
  sketch::SpaceSaving sketch(24);
  sketch.UpdateBatch(TestStream(5000, 8));
  auto restored_or = RoundTrip(sketch);
  auto& restored = restored_or.value();
  EXPECT_EQ(restored.size(), sketch.size());
  EXPECT_EQ(restored.total_count(), sketch.total_count());
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), sketch.Estimate(key)) << key;
    EXPECT_EQ(restored.ErrorOf(key), sketch.ErrorOf(key)) << key;
  }
  EXPECT_EQ(restored.GuaranteedHeavy(10), sketch.GuaranteedHeavy(10));
  // The rebuilt eviction index must keep min-eviction working: resumed
  // ingestion stays identical to the never-checkpointed sketch.
  const auto more = TestStream(1000, 9);
  auto original = sketch;  // Copy before diverging.
  original.UpdateBatch(more);
  restored.UpdateBatch(more);
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(restored.Estimate(key), original.Estimate(key)) << key;
  }
}

TEST(SketchSnapshotTest, CheckpointResumeMatchesUnbrokenIngestion) {
  // The snapshot/restore CLI contract: ingest half, checkpoint, restore,
  // ingest the rest — indistinguishable from one uninterrupted pass.
  const auto first = TestStream(3000, 10);
  const auto second = TestStream(3000, 11);
  sketch::CountMinSketch unbroken(256, 4, 42);
  unbroken.UpdateBatch(first);
  unbroken.UpdateBatch(second);

  sketch::CountMinSketch before(256, 4, 42);
  before.UpdateBatch(first);
  const std::string path =
      ::testing::TempDir() + "/sketch_snapshot_resume.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, before).ok());
  auto resumed = testutil::OpenArtifactAs<sketch::CountMinSketch>(path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  resumed.value().UpdateBatch(second);
  for (uint64_t key = 0; key < 300; ++key) {
    EXPECT_EQ(resumed.value().Estimate(key), unbroken.Estimate(key)) << key;
  }
}

TEST(SketchSnapshotTest, LoadRejectsWrongSketchKind) {
  sketch::MisraGries sketch(8);
  sketch.Update(1, 5);
  const std::string path = ::testing::TempDir() + "/sketch_snapshot_mg.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, sketch).ok());
  // The opener hands the file over as the kind it holds, mapped or not
  // (misra-gries has no mapped view), never as a count-min.
  for (const bool use_mmap : {false, true}) {
    EXPECT_TRUE(
        testutil::OpenArtifactAs<sketch::MisraGries>(path, use_mmap).ok());
    EXPECT_FALSE(
        testutil::OpenArtifactAs<sketch::CountMinSketch>(path, use_mmap).ok());
  }
  auto mapping = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  ASSERT_EQ(mapping.value().view().sections().size(), 1u);
  EXPECT_EQ(mapping.value().view().sections().front().type,
            SectionType::kMisraGries);
  auto view = MappedCountMinView::FromMapping(std::move(mapping).value(), path);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("count-min"), std::string::npos)
      << view.status().ToString();
}

TEST(SketchSnapshotTest, CorruptPayloadsRejectedNotCrashing) {
  // Payload-level fuzzing below the container (whose CRC would catch
  // these first): feed each Deserialize truncations and field mutations.
  sketch::CountMinSketch cms(16, 2, 3);
  cms.Update(5, 4);
  ByteWriter out;
  cms.Serialize(out);
  const std::vector<uint8_t>& bytes = out.bytes();
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    ByteReader in(bytes.data(), cut);
    EXPECT_FALSE(sketch::CountMinSketch::Deserialize(in).ok()) << cut;
  }
  {
    std::vector<uint8_t> wrong_version(bytes);
    wrong_version[0] = 9;
    ByteReader in(wrong_version.data(), wrong_version.size());
    EXPECT_FALSE(sketch::CountMinSketch::Deserialize(in).ok());
  }
  {
    std::vector<uint8_t> huge_width(bytes);
    huge_width[8] = 0xFF;
    huge_width[14] = 0xFF;  // width ~ 2^55: cannot fit the payload.
    ByteReader in(huge_width.data(), huge_width.size());
    EXPECT_FALSE(sketch::CountMinSketch::Deserialize(in).ok());
  }
}

TEST(SketchSnapshotTest, MisraGriesRejectsOverCapacityAndUnsortedKeys) {
  sketch::MisraGries sketch(4);
  for (uint64_t key : {1, 2, 3, 4}) sketch.Update(key, key + 1);
  ByteWriter out;
  sketch.Serialize(out);
  {
    std::vector<uint8_t> bad(out.bytes());
    bad[8] = 2;  // Claim capacity 2 < size 4.
    ByteReader in(bad.data(), bad.size());
    EXPECT_FALSE(sketch::MisraGries::Deserialize(in).ok());
  }
  {
    std::vector<uint8_t> bad(out.bytes());
    bad[32] = 9;  // First key 1 -> 9: keys no longer ascending.
    ByteReader in(bad.data(), bad.size());
    EXPECT_FALSE(sketch::MisraGries::Deserialize(in).ok());
  }
}

TEST(MappedCountMinViewTest, QueriesWithoutFullDeserialization) {
  sketch::CountMinSketch sketch(512, 4, 99);
  sketch.UpdateBatch(TestStream(20000, 12));
  const std::string path = ::testing::TempDir() + "/sketch_snapshot_map.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, sketch).ok());

  auto view = testutil::OpenArtifactAs<MappedCountMinView>(path,
                                                          /*use_mmap=*/true);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().width(), sketch.width());
  EXPECT_EQ(view.value().depth(), sketch.depth());
  EXPECT_EQ(view.value().total_count(), sketch.total_count());
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(view.value().Estimate(key), sketch.Estimate(key)) << key;
  }
}

TEST(MappedCountMinViewTest, RejectsNonCountMinSnapshot) {
  sketch::SpaceSaving sketch(8);
  sketch.Update(1);
  const std::string path = ::testing::TempDir() + "/sketch_snapshot_ss.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, sketch).ok());
  auto mapping = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  EXPECT_FALSE(
      MappedCountMinView::FromMapping(std::move(mapping).value(), path).ok());
}

TEST(MappedCountMinViewTest, RejectsUnknownPayloadFlags) {
  sketch::CountMinSketch sketch(16, 2, 3);
  sketch.Update(1, 2);
  const std::string path =
      ::testing::TempDir() + "/sketch_snapshot_flags.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, sketch).ok());
  // Set an undefined flag bit inside the payload (payload starts at
  // 0x40; the flags field sits at +4 = byte 68). The lazy open skips
  // payload CRCs, so the flags check itself must reject — mirroring the
  // full loader.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(68);
    file.put('\x02');
  }
  auto view = testutil::OpenArtifactAs<MappedCountMinView>(path,
                                                          /*use_mmap=*/true);
  ASSERT_FALSE(view.ok());
  EXPECT_NE(view.status().message().find("flags"), std::string::npos);
}

TEST(MappedCountMinViewTest, FullLoadRejectsCorruptionTheViewLeavesUnread) {
  sketch::CountMinSketch sketch(64, 2, 7);
  sketch.Update(3, 10);
  const std::string path =
      ::testing::TempDir() + "/sketch_snapshot_mapbad.bin";
  ASSERT_TRUE(SaveSketchSnapshot(path, sketch).ok());
  // Flip one counter byte on disk.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-1, std::ios::end);
    file.put('\x7F');
  }
  // A full load checks every payload CRC and rejects the file.
  auto loaded = testutil::OpenArtifactAs<sketch::CountMinSketch>(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
      << loaded.status().ToString();
  // The mapping checks only the header and section table, so the view
  // opens; the payload CRC is left to VerifyPayloadCrcs(), run on demand.
  auto mapping = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  EXPECT_FALSE(mapping.value().view().VerifyPayloadCrcs().ok());
  EXPECT_TRUE(
      MappedCountMinView::FromMapping(std::move(mapping).value(), path).ok());
}

}  // namespace
}  // namespace opthash::io
