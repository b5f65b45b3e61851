#include "io/bytes.h"

#include <array>

namespace opthash::io {
namespace {

// Slicing-by-8 CRC-32 tables (Kounavis & Berry): table[0] is the classic
// byte-at-a-time table; table[k][b] pre-folds byte b through k extra zero
// bytes, letting the hot loop consume 8 input bytes per iteration. This
// matters because every snapshot load CRCs the whole counter array — at
// one byte per step the checksum, not the disk, dominated load latency.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t crc = n;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][n] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t n = 0; n < 256; ++n) {
      tables[k][n] =
          (tables[k - 1][n] >> 8) ^ tables[0][tables[k - 1][n] & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<std::array<uint32_t, 256>, 8> tables =
      BuildCrcTables();
  const auto& t = tables;
  uint32_t crc = ~seed;
  const auto* bytes = static_cast<const uint8_t*>(data);
  while (size >= 8) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, bytes, sizeof(chunk));
    if (!HostIsLittleEndian()) chunk = ByteSwap64(chunk);
    chunk ^= crc;  // Fold the running CRC into the low 4 bytes.
    crc = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
          t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
          t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
          t[1][(chunk >> 48) & 0xFFu] ^ t[0][chunk >> 56];
    bytes += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void ByteWriter::WriteLittleEndian(const void* value, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(value);
  if (HostIsLittleEndian()) {
    buffer_.insert(buffer_.end(), bytes, bytes + size);
    return;
  }
  for (size_t i = 0; i < size; ++i) buffer_.push_back(bytes[size - 1 - i]);
}

void ByteWriter::WriteBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void ByteWriter::WriteString(const std::string& text) {
  WriteU32(static_cast<uint32_t>(text.size()));
  WriteBytes(text.data(), text.size());
}

void ByteWriter::WriteU64Array(Span<const uint64_t> values) {
  if (HostIsLittleEndian()) {
    WriteBytes(values.data(), values.size() * sizeof(uint64_t));
    return;
  }
  for (uint64_t v : values) WriteU64(v);
}

void ByteWriter::WriteI64Array(Span<const int64_t> values) {
  if (HostIsLittleEndian()) {
    WriteBytes(values.data(), values.size() * sizeof(int64_t));
    return;
  }
  for (int64_t v : values) WriteI64(v);
}

void ByteWriter::WriteI32Array(Span<const int32_t> values) {
  if (HostIsLittleEndian()) {
    WriteBytes(values.data(), values.size() * sizeof(int32_t));
    return;
  }
  for (int32_t v : values) WriteI32(v);
}

void ByteWriter::WriteDoubleArray(Span<const double> values) {
  if (HostIsLittleEndian()) {
    WriteBytes(values.data(), values.size() * sizeof(double));
    return;
  }
  for (double v : values) WriteDouble(v);
}

void ByteWriter::AlignTo(size_t alignment) {
  while (buffer_.size() % alignment != 0) buffer_.push_back(0);
}

Status ByteReader::Take(void* out, size_t size) {
  if (size > remaining()) {
    return Status::InvalidArgument(
        "truncated read: need " + std::to_string(size) + " bytes, have " +
        std::to_string(remaining()));
  }
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return Status::OK();
}

namespace {

template <typename T>
T FromLittleEndian(T value) {
  if (HostIsLittleEndian()) return value;
  uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (size_t i = 0; i < sizeof(T) / 2; ++i) {
    std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
  }
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

}  // namespace

Result<uint8_t> ByteReader::ReadU8() {
  uint8_t value = 0;
  Status status = Take(&value, sizeof(value));
  if (!status.ok()) return status;
  return value;
}

Result<uint32_t> ByteReader::ReadU32() {
  uint32_t value = 0;
  Status status = Take(&value, sizeof(value));
  if (!status.ok()) return status;
  return FromLittleEndian(value);
}

Result<uint64_t> ByteReader::ReadU64() {
  uint64_t value = 0;
  Status status = Take(&value, sizeof(value));
  if (!status.ok()) return status;
  return FromLittleEndian(value);
}

Result<int32_t> ByteReader::ReadI32() {
  auto value = ReadU32();
  if (!value.ok()) return value.status();
  return static_cast<int32_t>(value.value());
}

Result<int64_t> ByteReader::ReadI64() {
  auto value = ReadU64();
  if (!value.ok()) return value.status();
  return static_cast<int64_t>(value.value());
}

Result<double> ByteReader::ReadDouble() {
  auto bits = ReadU64();
  if (!bits.ok()) return bits.status();
  double value = 0.0;
  const uint64_t raw = bits.value();
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

Result<std::string> ByteReader::ReadString() {
  auto size = ReadU32();
  if (!size.ok()) return size.status();
  if (size.value() > remaining()) {
    return Status::InvalidArgument("truncated string payload");
  }
  std::string text(reinterpret_cast<const char*>(data_ + offset_),
                   size.value());
  offset_ += size.value();
  return text;
}

namespace {

template <typename T, typename Convert>
Status ReadArrayImpl(ByteReader& reader, std::vector<T>& out, size_t count,
                     Convert convert) {
  // Reject counts that cannot possibly fit before allocating: a corrupt
  // header must not drive a multi-GB resize.
  if (count > reader.remaining() / sizeof(T)) {
    return Status::InvalidArgument("array count exceeds payload size");
  }
  out.resize(count);
  auto span = reader.ReadSpan(count * sizeof(T));
  if (!span.ok()) return span.status();
  // An empty array's data() may be null, which memcpy must not receive.
  if (count != 0) {
    std::memcpy(out.data(), span.value().data(), count * sizeof(T));
  }
  if (!HostIsLittleEndian()) {
    for (T& v : out) v = convert(v);
  }
  return Status::OK();
}

}  // namespace

Status ByteReader::ReadU64Array(std::vector<uint64_t>& out, size_t count) {
  return ReadArrayImpl(*this, out, count,
                       [](uint64_t v) { return FromLittleEndian(v); });
}

Status ByteReader::ReadI64Array(std::vector<int64_t>& out, size_t count) {
  return ReadArrayImpl(*this, out, count, [](int64_t v) {
    const auto raw = FromLittleEndian(static_cast<uint64_t>(v));
    return static_cast<int64_t>(raw);
  });
}

Status ByteReader::ReadI32Array(std::vector<int32_t>& out, size_t count) {
  return ReadArrayImpl(*this, out, count, [](int32_t v) {
    const auto raw = FromLittleEndian(static_cast<uint32_t>(v));
    return static_cast<int32_t>(raw);
  });
}

Status ByteReader::ReadDoubleArray(std::vector<double>& out, size_t count) {
  return ReadArrayImpl(*this, out, count, [](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bits = FromLittleEndian(bits);
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  });
}

Status ByteReader::AlignTo(size_t alignment) {
  while (offset_ % alignment != 0) {
    auto pad = ReadU8();
    if (!pad.ok()) return pad.status();
    if (pad.value() != 0) {
      return Status::InvalidArgument("non-zero padding byte");
    }
  }
  return Status::OK();
}

Result<Span<const uint8_t>> ByteReader::ReadSpan(size_t size) {
  if (size > remaining()) {
    return Status::InvalidArgument("truncated span read");
  }
  Span<const uint8_t> span(data_ + offset_, size);
  offset_ += size;
  return span;
}

Status ByteReader::ExpectFullyConsumed() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(
        std::to_string(remaining()) + " trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace opthash::io
