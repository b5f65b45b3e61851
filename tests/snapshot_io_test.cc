// Container-level tests for the versioned binary snapshot format
// (src/io/snapshot.h): header/section-table validation, CRC rejection of
// corruption, and the mmap-backed zero-copy open path.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "io/snapshot.h"

namespace opthash::io {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

SnapshotWriter TwoSectionWriter() {
  SnapshotWriter writer;
  writer.AddSection(SectionType::kCountMinSketch,
                    Payload({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  writer.AddSection(SectionType::kFeaturizer, Payload({0xAA, 0xBB}));
  return writer;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotContainerTest, RoundTripSections) {
  const std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  auto reader = SnapshotReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SnapshotView& view = reader.value().view();
  ASSERT_EQ(view.sections().size(), 2u);
  EXPECT_EQ(view.sections()[0].type, SectionType::kCountMinSketch);
  EXPECT_EQ(view.sections()[0].payload.size(), 9u);
  EXPECT_EQ(view.sections()[0].payload[4], 5);
  EXPECT_EQ(view.sections()[1].type, SectionType::kFeaturizer);
  EXPECT_EQ(view.sections()[1].payload.size(), 2u);
  EXPECT_NE(view.Find(SectionType::kFeaturizer), nullptr);
  EXPECT_EQ(view.Find(SectionType::kSpaceSaving), nullptr);
}

TEST(SnapshotContainerTest, EveryRegisteredSectionTypeRoundTripsWithAName) {
  // Container-level sweep over the full SectionType registry: each type
  // survives a write/parse round trip and renders a human-readable name
  // (restore errors quote it; an "unknown" name means the registry and
  // SectionTypeName drifted apart). The list is what docs/FORMATS.md
  // documents — tools/lint/opthash_lint.py pins enum <-> doc <-> test.
  const SectionType all[] = {
      SectionType::kCountMinSketch, SectionType::kCountSketch,
      SectionType::kAmsSketch,      SectionType::kLearnedCountMin,
      SectionType::kMisraGries,     SectionType::kSpaceSaving,
      SectionType::kWindowedSketch, SectionType::kLogisticRegression,
      SectionType::kDecisionTree,   SectionType::kRandomForest,
      SectionType::kOptHashEstimator, SectionType::kFeaturizer,
  };
  SnapshotWriter writer;
  uint8_t marker = 1;
  for (const SectionType type : all) {
    writer.AddSection(type, {marker++});
    EXPECT_STRNE(SectionTypeName(type), "unknown")
        << static_cast<uint32_t>(type);
  }
  auto reader = SnapshotReader::FromBytes(writer.Finish());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SnapshotView& view = reader.value().view();
  ASSERT_EQ(view.sections().size(), std::size(all));
  for (size_t i = 0; i < std::size(all); ++i) {
    EXPECT_EQ(view.sections()[i].type, all[i]);
    ASSERT_EQ(view.sections()[i].payload.size(), 1u);
    EXPECT_EQ(view.sections()[i].payload[0], i + 1);
  }
}

TEST(SnapshotContainerTest, PayloadsAreEightAligned) {
  const std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  auto reader = SnapshotReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok());
  for (const SnapshotSection& section : reader.value().view().sections()) {
    const auto offset = static_cast<size_t>(section.payload.data() -
                                            bytes.data());
    EXPECT_EQ(offset % kSectionAlignment, 0u);
  }
}

TEST(SnapshotContainerTest, EmptyContainerIsValid) {
  SnapshotWriter writer;
  auto reader = SnapshotReader::FromBytes(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().view().sections().empty());
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes[0] = 'X';
  EXPECT_FALSE(SnapshotReader::FromBytes(bytes).ok());
}

TEST(SnapshotContainerTest, RejectsFutureVersion) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes[8] = 99;  // Version field.
  // The header CRC also breaks, but even a re-CRC'd future version must be
  // refused; check the error mentions one of the two.
  auto reader = SnapshotReader::FromBytes(bytes);
  ASSERT_FALSE(reader.ok());
}

TEST(SnapshotContainerTest, RejectsHeaderCorruption) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes[12] ^= 0x01;  // Section count.
  auto reader = SnapshotReader::FromBytes(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos);
}

TEST(SnapshotContainerTest, RejectsSectionTableCorruption) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes[kSnapshotHeaderSize + 8] ^= 0x01;  // First section's offset.
  EXPECT_FALSE(SnapshotReader::FromBytes(bytes).ok());
}

TEST(SnapshotContainerTest, RejectsPayloadCorruption) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes.back() ^= 0x80;  // Last payload byte.
  auto reader = SnapshotReader::FromBytes(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos);
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{40},
                      size_t{31}, size_t{8}, size_t{0}}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(SnapshotReader::FromBytes(cut).ok()) << keep;
  }
}

TEST(SnapshotContainerTest, WriteToFileThenOpen) {
  const std::string path = ::testing::TempDir() + "/snapshot_io_file.bin";
  ASSERT_TRUE(TwoSectionWriter().WriteToFile(path).ok());
  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().view().sections().size(), 2u);
}

TEST(SnapshotContainerTest, OpenMissingFileIsNotFound) {
  auto reader = SnapshotReader::Open(::testing::TempDir() + "/nope.bin");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(MappedSnapshotTest, OpenServesSectionsFromMapping) {
  const std::string path = ::testing::TempDir() + "/snapshot_io_mmap.bin";
  ASSERT_TRUE(TwoSectionWriter().WriteToFile(path).ok());
  auto mapped = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const SnapshotSection* section =
      mapped.value().view().Find(SectionType::kCountMinSketch);
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->payload.size(), 9u);
  EXPECT_EQ(section->payload[0], 1);
  EXPECT_TRUE(mapped.value().view().VerifyPayloadCrcs().ok());
}

TEST(MappedSnapshotTest, MoveKeepsViewValid) {
  const std::string path = ::testing::TempDir() + "/snapshot_io_move.bin";
  ASSERT_TRUE(TwoSectionWriter().WriteToFile(path).ok());
  auto mapped = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok());
  MappedSnapshot moved = std::move(mapped).value();
  const SnapshotSection* section =
      moved.view().Find(SectionType::kFeaturizer);
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->payload[1], 0xBB);
}

TEST(MappedSnapshotTest, LazyOpenStillCatchesPayloadCorruptionOnVerify) {
  const std::string path = ::testing::TempDir() + "/snapshot_io_corrupt.bin";
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes.back() ^= 0x01;  // Corrupt a payload byte, not header/table.
  WriteFile(path, bytes);
  // The mapped open skips payload CRCs (zero-copy hot path)…
  auto lazy = MappedSnapshot::Open(path);
  ASSERT_TRUE(lazy.ok());
  EXPECT_FALSE(lazy.value().view().VerifyPayloadCrcs().ok());
  // …but the owning reader verifies them and rejects at open.
  EXPECT_FALSE(SnapshotReader::Open(path).ok());
}

TEST(MappedSnapshotTest, RejectsHeaderCorruptionEvenLazily) {
  const std::string path = ::testing::TempDir() + "/snapshot_io_badhdr.bin";
  std::vector<uint8_t> bytes = TwoSectionWriter().Finish();
  bytes[9] ^= 0x01;  // Inside the version field.
  WriteFile(path, bytes);
  EXPECT_FALSE(MappedSnapshot::Open(path).ok());
}

}  // namespace
}  // namespace opthash::io
