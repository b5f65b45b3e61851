#include "server/snapshot_rotator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "io/bytes.h"

#include <dirent.h>
#include <errno.h>
#include <sys/stat.h>
#include <sys/types.h>

namespace opthash::server {
namespace {

constexpr char kPrefix[] = "snapshot-";
constexpr char kSuffix[] = ".bin";
constexpr size_t kSequenceDigits = 6;

std::string SnapshotFileName(uint64_t sequence) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%0*llu%s", kPrefix,
                static_cast<int>(kSequenceDigits),
                static_cast<unsigned long long>(sequence), kSuffix);
  return name;
}

/// snapshot-NNNNNN.bin -> NNNNNN; nullopt-style via ok flag.
bool ParseSequence(const std::string& name, uint64_t& sequence) {
  const size_t prefix = sizeof(kPrefix) - 1;
  const size_t suffix = sizeof(kSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kSuffix) != 0) return false;
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  sequence = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

Status EnsureDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal("mkdir " + dir + ": " + std::strerror(errno));
}

}  // namespace

Status RotationConfig::Validate() const {
  if (!enabled()) {
    if (every_items != 0 || every_seconds != 0.0) {
      return Status::InvalidArgument(
          "snapshot triggers need --snapshot-dir");
    }
    return Status::OK();
  }
  if (keep == 0) {
    return Status::InvalidArgument("--snapshot-keep must be >= 1");
  }
  if (every_seconds < 0.0 || poll_seconds <= 0.0) {
    return Status::InvalidArgument(
        "snapshot intervals must be non-negative");
  }
  return Status::OK();
}

SnapshotRotator::SnapshotRotator(RotationConfig config, ItemsFn items,
                                 SaveFn save)
    : config_(std::move(config)),
      items_(std::move(items)),
      save_(std::move(save)) {}

SnapshotRotator::~SnapshotRotator() { Stop(); }

Result<std::vector<std::pair<uint64_t, std::string>>>
SnapshotRotator::ListRotated(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> rotated;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::NotFound("opendir " + dir + ": " + std::strerror(errno));
  }
  while (dirent* entry = ::readdir(handle)) {
    uint64_t sequence = 0;
    if (ParseSequence(entry->d_name, sequence)) {
      rotated.emplace_back(sequence, entry->d_name);
    }
  }
  ::closedir(handle);
  std::sort(rotated.begin(), rotated.end());
  return rotated;
}

Result<std::string> SnapshotRotator::FindLatestSnapshot(
    const std::string& dir) {
  auto rotated = ListRotated(dir);
  if (!rotated.ok()) return rotated.status();
  if (rotated.value().empty()) {
    return Status::NotFound("no rotated snapshots in " + dir);
  }
  return dir + "/" + rotated.value().back().second;
}

Status SnapshotRotator::Start() {
  if (!config_.enabled()) return Status::OK();
  OPTHASH_IO_RETURN_IF_ERROR(config_.Validate());
  OPTHASH_IO_RETURN_IF_ERROR(EnsureDirectory(config_.dir));

  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return Status::OK();
  auto rotated = ListRotated(config_.dir);
  if (!rotated.ok()) return rotated.status();
  if (!rotated.value().empty()) {
    next_sequence_ = rotated.value().back().first + 1;
  }
  items_at_last_rotation_ = items_();
  {
    std::lock_guard<std::mutex> age_lock(age_mutex_);
    since_last_rotation_.Restart();
  }
  started_ = true;
  stop_ = false;
  if (config_.every_items != 0 || config_.every_seconds != 0.0) {
    poller_ = std::thread([this] { PollLoop(); });
  }
  return Status::OK();
}

void SnapshotRotator::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (poller_.joinable()) poller_.join();
}

Result<uint64_t> SnapshotRotator::RotateLocked() {
  const uint64_t sequence = next_sequence_;
  const std::string final_path = config_.dir + "/" + SnapshotFileName(sequence);
  const std::string temp_path = final_path + ".tmp";
  const uint64_t items_now = items_();
  const Status saved = save_(temp_path);
  if (!saved.ok()) {
    failed_rotations_.fetch_add(1);
    std::remove(temp_path.c_str());  // Drop any partial write.
    return saved;
  }
  if (std::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    failed_rotations_.fetch_add(1);
    const Status status = Status::Internal(
        "rename " + temp_path + " -> " + final_path + ": " +
        std::strerror(errno));
    std::remove(temp_path.c_str());
    return status;
  }
  ++next_sequence_;
  rotations_.fetch_add(1);
  items_at_last_rotation_ = items_now;
  {
    std::lock_guard<std::mutex> age_lock(age_mutex_);
    rotated_once_ = true;
    since_last_rotation_.Restart();
  }

  // Bounded retention: prune oldest beyond `keep`. Prune failures are
  // reported but do not fail the rotation that already succeeded.
  auto rotated = ListRotated(config_.dir);
  if (rotated.ok() && rotated.value().size() > config_.keep) {
    const size_t excess = rotated.value().size() - config_.keep;
    for (size_t i = 0; i < excess; ++i) {
      const std::string stale =
          config_.dir + "/" + rotated.value()[i].second;
      if (std::remove(stale.c_str()) != 0) {
        std::fprintf(stderr, "opthash_serve: cannot prune %s: %s\n",
                     stale.c_str(), std::strerror(errno));
      }
    }
  }
  return sequence;
}

Result<uint64_t> SnapshotRotator::RotateNow() {
  if (!config_.enabled()) {
    return Status::FailedPrecondition(
        "snapshot rotation is disabled (daemon started without "
        "--snapshot-dir)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return RotateLocked();
}

double SnapshotRotator::LastRotationAgeSeconds() const {
  std::lock_guard<std::mutex> lock(age_mutex_);
  if (!rotated_once_) return -1.0;
  return since_last_rotation_.ElapsedSeconds();
}

uint64_t SnapshotRotator::rotations() const { return rotations_.load(); }

uint64_t SnapshotRotator::failed_rotations() const {
  return failed_rotations_.load();
}

void SnapshotRotator::PollLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    wake_.wait_for(lock, std::chrono::duration<double>(config_.poll_seconds),
                   [this] { return stop_; });
    if (stop_) return;
    const bool item_due =
        config_.every_items != 0 &&
        items_() - items_at_last_rotation_ >= config_.every_items;
    bool time_due = false;
    if (config_.every_seconds != 0.0) {
      // Read the timer under its own mutex; the clock also runs between
      // Start and the first rotation (rotated_once_ only gates the
      // "never rotated" stats answer, not this trigger).
      std::lock_guard<std::mutex> age_lock(age_mutex_);
      time_due =
          since_last_rotation_.ElapsedSeconds() >= config_.every_seconds;
    }
    if (!item_due && !time_due) continue;
    auto rotated = RotateLocked();
    if (!rotated.ok()) {
      std::fprintf(stderr, "opthash_serve: rotation failed: %s\n",
                   rotated.status().ToString().c_str());
    }
  }
}

}  // namespace opthash::server
