// Snapshot rotation: sequence numbering (including resume-after-restart),
// atomic visibility (only complete .bin files, never .tmp), bounded
// retention, item/time triggers, and the FindLatestSnapshot recovery
// probe.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "server/snapshot_rotator.h"

namespace opthash::server {
namespace {

std::string FreshDir(const std::string& stem) {
  // Pid-qualified so concurrent runs never share a directory, and emptied
  // first: ctest starts each case in its own process, so a reused pid
  // would otherwise find an earlier run's rotated files and resume their
  // sequence. The rotator creates the directory itself.
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "/rotator_" + stem + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

SnapshotRotator::SaveFn WriteMarker(std::atomic<uint64_t>& saves) {
  return [&saves](const std::string& path) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "snapshot " << saves.fetch_add(1) + 1;
    return file.good() ? Status::OK()
                       : Status::Internal("cannot write " + path);
  };
}

TEST(SnapshotRotatorTest, DisabledConfigIsANoOp) {
  RotationConfig config;  // Empty dir.
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  EXPECT_TRUE(rotator.Start().ok());
  EXPECT_FALSE(rotator.RotateNow().ok());  // FailedPrecondition.
  EXPECT_EQ(saves.load(), 0u);
}

TEST(SnapshotRotatorTest, TriggersWithoutDirRejected) {
  RotationConfig config;
  config.every_items = 10;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SnapshotRotatorTest, RotateNowWritesSequencedFiles) {
  RotationConfig config;
  config.dir = FreshDir("seq");
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());
  auto first = rotator.RotateNow();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  auto second = rotator.RotateNow();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
  EXPECT_EQ(rotator.rotations(), 2u);
  EXPECT_GE(rotator.LastRotationAgeSeconds(), 0.0);

  auto rotated = SnapshotRotator::ListRotated(config.dir);
  ASSERT_TRUE(rotated.ok());
  ASSERT_EQ(rotated.value().size(), 2u);
  EXPECT_EQ(rotated.value()[0].second, "snapshot-000001.bin");
  EXPECT_EQ(rotated.value()[1].second, "snapshot-000002.bin");

  auto latest = SnapshotRotator::FindLatestSnapshot(config.dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), config.dir + "/snapshot-000002.bin");
}

TEST(SnapshotRotatorTest, FindLatestOnMissingOrEmptyDirIsNotFound) {
  EXPECT_EQ(
      SnapshotRotator::FindLatestSnapshot("/definitely/not/here").status()
          .code(),
      StatusCode::kNotFound);
  RotationConfig config;
  config.dir = FreshDir("empty");
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());  // Creates the (empty) directory.
  EXPECT_EQ(SnapshotRotator::FindLatestSnapshot(config.dir).status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotRotatorTest, SequenceResumesAcrossRestart) {
  RotationConfig config;
  config.dir = FreshDir("resume");
  std::atomic<uint64_t> saves{0};
  {
    SnapshotRotator rotator(
        config, [] { return uint64_t{0}; }, WriteMarker(saves));
    ASSERT_TRUE(rotator.Start().ok());
    ASSERT_TRUE(rotator.RotateNow().ok());
    ASSERT_TRUE(rotator.RotateNow().ok());
  }
  // A "restarted daemon": a new rotator over the same directory must not
  // reuse live sequence numbers.
  SnapshotRotator restarted(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(restarted.Start().ok());
  auto next = restarted.RotateNow();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 3u);
}

TEST(SnapshotRotatorTest, RetentionPrunesOldest) {
  RotationConfig config;
  config.dir = FreshDir("keep");
  config.keep = 2;
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rotator.RotateNow().ok());
  auto rotated = SnapshotRotator::ListRotated(config.dir);
  ASSERT_TRUE(rotated.ok());
  ASSERT_EQ(rotated.value().size(), 2u);
  EXPECT_EQ(rotated.value()[0].first, 4u);
  EXPECT_EQ(rotated.value()[1].first, 5u);
}

TEST(SnapshotRotatorTest, FailedSaveLeavesNoVisibleSnapshot) {
  RotationConfig config;
  config.dir = FreshDir("fail");
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; },
      [](const std::string&) { return Status::Internal("disk on fire"); });
  ASSERT_TRUE(rotator.Start().ok());
  EXPECT_FALSE(rotator.RotateNow().ok());
  EXPECT_EQ(rotator.rotations(), 0u);
  // The failure must be COUNTED, not just returned: background-trigger
  // rotations have no caller to see the Status, so the counter is the
  // only durable evidence checkpointing broke.
  EXPECT_EQ(rotator.failed_rotations(), 1u);
  EXPECT_FALSE(rotator.RotateNow().ok());
  EXPECT_EQ(rotator.failed_rotations(), 2u);
  EXPECT_LT(rotator.LastRotationAgeSeconds(), 0.0);
  EXPECT_FALSE(SnapshotRotator::FindLatestSnapshot(config.dir).ok());
}

TEST(SnapshotRotatorTest, ItemTriggerRotatesInBackground) {
  RotationConfig config;
  config.dir = FreshDir("items");
  config.every_items = 100;
  config.poll_seconds = 0.005;
  std::atomic<uint64_t> items{0};
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [&items] { return items.load(); }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());
  // Below the threshold: nothing may rotate.
  items.store(99);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rotator.rotations(), 0u);
  // Crossing it: the poller must pick it up.
  items.store(150);
  for (int i = 0; i < 400 && rotator.rotations() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rotator.rotations(), 1u);
  // The trigger re-arms relative to the rotation point (150), so +99
  // more items stay below the next threshold.
  items.store(249);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(rotator.rotations(), 1u);
}

TEST(SnapshotRotatorTest, TimeTriggerRotatesInBackground) {
  RotationConfig config;
  config.dir = FreshDir("time");
  config.every_seconds = 0.02;
  config.poll_seconds = 0.005;
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());
  for (int i = 0; i < 400 && rotator.rotations() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(rotator.rotations(), 2u);
}

TEST(SnapshotRotatorTest, TempFilesAreNeverListed) {
  RotationConfig config;
  config.dir = FreshDir("tmpfiles");
  std::atomic<uint64_t> saves{0};
  SnapshotRotator rotator(
      config, [] { return uint64_t{0}; }, WriteMarker(saves));
  ASSERT_TRUE(rotator.Start().ok());
  ASSERT_TRUE(rotator.RotateNow().ok());
  // Simulate a crash mid-write: a stale .tmp must be invisible to both
  // the listing and the recovery probe.
  std::ofstream(config.dir + "/snapshot-000099.bin.tmp") << "torn";
  std::ofstream(config.dir + "/unrelated.txt") << "noise";
  auto rotated = SnapshotRotator::ListRotated(config.dir);
  ASSERT_TRUE(rotated.ok());
  ASSERT_EQ(rotated.value().size(), 1u);
  auto latest = SnapshotRotator::FindLatestSnapshot(config.dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value(), config.dir + "/snapshot-000001.bin");
}

}  // namespace
}  // namespace opthash::server
