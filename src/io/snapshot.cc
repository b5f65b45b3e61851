#include "io/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

namespace opthash::io {

const char* SectionTypeName(SectionType type) {
  switch (type) {
    case SectionType::kCountMinSketch:
      return "count-min";
    case SectionType::kCountSketch:
      return "count-sketch";
    case SectionType::kAmsSketch:
      return "ams";
    case SectionType::kLearnedCountMin:
      return "learned-count-min";
    case SectionType::kMisraGries:
      return "misra-gries";
    case SectionType::kSpaceSaving:
      return "space-saving";
    case SectionType::kWindowedSketch:
      return "windowed-sketch";
    case SectionType::kLogisticRegression:
      return "logreg";
    case SectionType::kDecisionTree:
      return "cart";
    case SectionType::kRandomForest:
      return "rf";
    case SectionType::kOptHashEstimator:
      return "opt-hash-estimator";
    case SectionType::kFeaturizer:
      return "featurizer";
  }
  return "unknown";
}

void SnapshotWriter::AddSection(SectionType type,
                                std::vector<uint8_t> payload) {
  sections_.push_back({type, std::move(payload)});
}

std::vector<uint8_t> SnapshotWriter::Finish() const {
  // Lay out payload offsets first: header, table, then 8-aligned payloads.
  const size_t table_offset = kSnapshotHeaderSize;
  size_t cursor = table_offset + sections_.size() * kSectionEntrySize;
  std::vector<size_t> offsets;
  offsets.reserve(sections_.size());
  for (const Section& section : sections_) {
    cursor = (cursor + kSectionAlignment - 1) / kSectionAlignment *
             kSectionAlignment;
    offsets.push_back(cursor);
    cursor += section.payload.size();
  }
  const size_t file_size = cursor;

  // Section table.
  ByteWriter table;
  for (size_t i = 0; i < sections_.size(); ++i) {
    table.WriteU32(static_cast<uint32_t>(sections_[i].type));
    table.WriteU32(0);  // flags, reserved
    table.WriteU64(offsets[i]);
    table.WriteU64(sections_[i].payload.size());
    table.WriteU32(Crc32(sections_[i].payload.data(),
                         sections_[i].payload.size()));
    table.WriteU32(0);  // reserved
  }

  // Header.
  ByteWriter header;
  header.WriteBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  header.WriteU32(kSnapshotVersion);
  header.WriteU32(static_cast<uint32_t>(sections_.size()));
  header.WriteU64(file_size);
  header.WriteU32(Crc32(table.bytes().data(), table.size()));
  header.WriteU32(Crc32(header.bytes().data(), header.size()));

  std::vector<uint8_t> out(file_size, 0);
  std::memcpy(out.data(), header.bytes().data(), header.size());
  if (!table.bytes().empty()) {
    std::memcpy(out.data() + table_offset, table.bytes().data(),
                table.size());
  }
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].payload.empty()) continue;
    std::memcpy(out.data() + offsets[i], sections_[i].payload.data(),
                sections_[i].payload.size());
  }
  return out;
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Finish();
  // Write-then-rename so the checkpoint cycle `--in ckpt --out ckpt`
  // never destroys the previous good file: a crash or ENOSPC mid-write
  // leaves only the .tmp behind, and rename() replaces atomically.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return Status::InvalidArgument("cannot write: " + tmp);
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
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

Result<SnapshotView> SnapshotView::Parse(Span<const uint8_t> bytes) {
  if (bytes.size() < kSnapshotHeaderSize) {
    return Status::InvalidArgument("snapshot shorter than its header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument("not an opthash snapshot (bad magic)");
  }
  ByteReader header(bytes.data(), kSnapshotHeaderSize);
  (void)header.ReadSpan(sizeof(kSnapshotMagic));  // magic, checked above
  const uint32_t version = header.ReadU32().value();
  const uint32_t section_count = header.ReadU32().value();
  const uint64_t file_size = header.ReadU64().value();
  const uint32_t table_crc = header.ReadU32().value();
  const uint32_t header_crc = header.ReadU32().value();
  if (Crc32(bytes.data(), kSnapshotHeaderSize - sizeof(uint32_t)) !=
      header_crc) {
    return Status::InvalidArgument("snapshot header CRC mismatch");
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  if (file_size != bytes.size()) {
    return Status::InvalidArgument(
        "snapshot truncated: header says " + std::to_string(file_size) +
        " bytes, file has " + std::to_string(bytes.size()));
  }
  const size_t table_bytes = section_count * kSectionEntrySize;
  if (kSnapshotHeaderSize + table_bytes > bytes.size()) {
    return Status::InvalidArgument("section table exceeds snapshot size");
  }
  if (Crc32(bytes.data() + kSnapshotHeaderSize, table_bytes) != table_crc) {
    return Status::InvalidArgument("section table CRC mismatch");
  }

  SnapshotView view;
  ByteReader table(bytes.data() + kSnapshotHeaderSize, table_bytes);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t type = table.ReadU32().value();
    (void)table.ReadU32();  // flags
    const uint64_t offset = table.ReadU64().value();
    const uint64_t size = table.ReadU64().value();
    const uint32_t crc = table.ReadU32().value();
    (void)table.ReadU32();  // reserved
    if (offset % kSectionAlignment != 0) {
      return Status::InvalidArgument("section payload is misaligned");
    }
    if (offset > bytes.size() || size > bytes.size() - offset) {
      return Status::InvalidArgument("section payload out of bounds");
    }
    SnapshotSection section;
    section.type = static_cast<SectionType>(type);
    section.payload = Span<const uint8_t>(bytes.data() + offset, size);
    section.crc = crc;
    view.sections_.push_back(section);
  }
  return view;
}

const SnapshotSection* SnapshotView::Find(SectionType type) const {
  for (const SnapshotSection& section : sections_) {
    if (section.type == type) return &section;
  }
  return nullptr;
}

Status SnapshotView::VerifyPayloadCrcs() const {
  for (const SnapshotSection& section : sections_) {
    if (Crc32(section.payload.data(), section.payload.size()) !=
        section.crc) {
      return Status::InvalidArgument(
          std::string("payload CRC mismatch in section ") +
          SectionTypeName(section.type));
    }
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::NotFound("cannot read: " + path);
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (!file.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::Internal("short read from " + path);
  }
  return FromBytes(std::move(bytes));
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::vector<uint8_t> bytes) {
  SnapshotReader reader;
  reader.bytes_ = std::move(bytes);
  auto view = SnapshotView::Parse(
      Span<const uint8_t>(reader.bytes_.data(), reader.bytes_.size()));
  if (!view.ok()) return view.status();
  OPTHASH_IO_RETURN_IF_ERROR(view.value().VerifyPayloadCrcs());
  reader.view_ = std::move(view).value();
  return reader;
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT vararg open
  if (fd < 0) {
    return Status::NotFound("cannot open: " + path + " (" +
                            std::strerror(errno) + ")");
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat failed: " + path);
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size < kSnapshotHeaderSize) {
    ::close(fd);
    return Status::InvalidArgument("snapshot shorter than its header: " +
                                   path);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps its own reference to the file.
  if (data == MAP_FAILED) {
    return Status::Internal("mmap failed: " + path + " (" +
                            std::strerror(errno) + ")");
  }
  MappedSnapshot snapshot;
  snapshot.data_ = data;
  snapshot.size_ = size;
  auto view = SnapshotView::Parse(
      Span<const uint8_t>(static_cast<const uint8_t*>(data), size));
  if (!view.ok()) return view.status();  // ~MappedSnapshot unmaps.
  snapshot.view_ = std::move(view).value();
  return snapshot;
}

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      view_(std::move(other.view_)) {}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    view_ = std::move(other.view_);
  }
  return *this;
}

MappedSnapshot::~MappedSnapshot() { Release(); }

void MappedSnapshot::Release() {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace opthash::io
