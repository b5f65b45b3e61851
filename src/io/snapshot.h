#ifndef OPTHASH_IO_SNAPSHOT_H_
#define OPTHASH_IO_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "io/bytes.h"

namespace opthash::io {

/// On-disk container identity. The full byte-level specification lives in
/// docs/FORMATS.md; the constants here are the single in-code source of
/// truth for it.
inline constexpr char kSnapshotMagic[8] = {'O', 'P', 'T', 'H',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr size_t kSnapshotHeaderSize = 32;
inline constexpr size_t kSectionEntrySize = 32;
inline constexpr size_t kSectionAlignment = 8;

/// \brief What a snapshot section contains. Values are stable on-disk
/// identifiers — never renumber; add new types at unused values.
enum class SectionType : uint32_t {
  kCountMinSketch = 1,
  kCountSketch = 2,
  kAmsSketch = 3,
  kLearnedCountMin = 4,
  kMisraGries = 5,
  kSpaceSaving = 6,
  kWindowedSketch = 7,
  kLogisticRegression = 16,
  kDecisionTree = 17,
  kRandomForest = 18,
  kOptHashEstimator = 32,
  kFeaturizer = 33,
};

const char* SectionTypeName(SectionType type);

/// \brief Assembles a versioned snapshot container: 32-byte header
/// (magic, version, section count, file size, CRCs), section table, then
/// 8-aligned payloads. See docs/FORMATS.md for the byte layout.
class SnapshotWriter {
 public:
  /// Appends one section; payload bytes are taken by value and owned by
  /// the writer until Finish.
  void AddSection(SectionType type, std::vector<uint8_t> payload);

  /// Serializes the container. The writer can keep accepting sections and
  /// Finish again (each call re-renders the full container).
  std::vector<uint8_t> Finish() const;

  /// Finish + atomic-ish file write (write then flush; fails with a Status
  /// on any I/O error rather than leaving a silently short file undetected
  /// — a short file also fails the reader's size check).
  Status WriteToFile(const std::string& path) const;

  size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    SectionType type;
    std::vector<uint8_t> payload;
  };
  std::vector<Section> sections_;
};

/// \brief One parsed section: its type plus a borrowed view of the payload
/// bytes inside the container buffer.
struct SnapshotSection {
  SectionType type;
  Span<const uint8_t> payload;
  uint32_t crc = 0;
};

/// \brief Parsed, validated view over snapshot container bytes the caller
/// keeps alive (an owning reader's buffer or an mmap'd file).
///
/// Parse validates the header CRC, section-table CRC, magic, version, and
/// that every section lies inside the buffer. It never reads a payload:
/// payload CRCs are checked by VerifyPayloadCrcs() alone, which the owning
/// reader runs on every open and a mapped snapshot leaves to its caller.
class SnapshotView {
 public:
  static Result<SnapshotView> Parse(Span<const uint8_t> bytes);

  const std::vector<SnapshotSection>& sections() const { return sections_; }

  /// First section of `type`, or nullptr. Pointer is into this view; it
  /// lives as long as the view does.
  const SnapshotSection* Find(SectionType type) const;

  /// Checks every payload against its section-table CRC (reads all bytes).
  Status VerifyPayloadCrcs() const;

 private:
  std::vector<SnapshotSection> sections_;
};

/// \brief Owning snapshot reader: slurps the file into memory, parses it
/// and verifies every payload CRC. The straightforward load path; use
/// MappedSnapshot for zero-copy hot restarts.
class SnapshotReader {
 public:
  static Result<SnapshotReader> Open(const std::string& path);
  static Result<SnapshotReader> FromBytes(std::vector<uint8_t> bytes);

  const SnapshotView& view() const { return view_; }

 private:
  SnapshotReader() = default;

  // Note: moving a SnapshotReader is safe because vector moves keep the
  // heap buffer (and thus the view's spans) stable.
  std::vector<uint8_t> bytes_;
  SnapshotView view_;
};

/// \brief mmap-backed snapshot: the file is mapped read-only and section
/// payloads are served directly from the page cache — no memcpy, no
/// up-front parse of counter arrays. Open validates the header and section
/// table only; payload CRCs are checked by view().VerifyPayloadCrcs()
/// alone, which a caller runs when it is about to read every payload byte
/// anyway (the point of the mapped path is to *not* touch every page on a
/// hot restart).
///
/// Move-only; the mapping is released on destruction. Views handed out by
/// view() are invalidated by destruction — zero-copy readers (e.g.
/// MappedCountMinView) must keep the MappedSnapshot alive.
class MappedSnapshot {
 public:
  static Result<MappedSnapshot> Open(const std::string& path);

  /// An empty snapshot (no mapping, no sections) — the moved-from state,
  /// also usable as a member-default before Open's result is assigned in.
  MappedSnapshot() = default;

  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;
  ~MappedSnapshot();

  const SnapshotView& view() const { return view_; }
  size_t file_size() const { return size_; }

 private:
  void Release();

  void* data_ = nullptr;
  size_t size_ = 0;
  SnapshotView view_;
};

}  // namespace opthash::io

#endif  // OPTHASH_IO_SNAPSHOT_H_
