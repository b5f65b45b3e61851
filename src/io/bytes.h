#ifndef OPTHASH_IO_BYTES_H_
#define OPTHASH_IO_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace opthash::io {

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte
/// range — the integrity check of every snapshot section (docs/FORMATS.md).
/// `seed` is the running CRC for incremental computation (0 to start).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// \brief Append-only little-endian encoder backing the binary snapshot
/// format (docs/FORMATS.md).
///
/// All multi-byte scalars are written little-endian regardless of host
/// order; doubles are written as their IEEE-754 bit pattern. The writer
/// owns its buffer; callers take the finished bytes with `bytes()` or
/// `TakeBytes()`. Never fails: the buffer grows as needed.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { buffer_.push_back(value); }
  void WriteU32(uint32_t value) { WriteLittleEndian(&value, sizeof(value)); }
  void WriteU64(uint64_t value) { WriteLittleEndian(&value, sizeof(value)); }
  void WriteI32(int32_t value) {
    WriteU32(static_cast<uint32_t>(value));
  }
  void WriteI64(int64_t value) {
    WriteU64(static_cast<uint64_t>(value));
  }
  void WriteDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteU64(bits);
  }

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t size);

  /// u32 byte length followed by the bytes (the string framing of
  /// docs/FORMATS.md).
  void WriteString(const std::string& text);

  /// Element-wise little-endian vector writes, no length prefix (the
  /// layouts in docs/FORMATS.md carry counts in their fixed headers).
  void WriteU64Array(Span<const uint64_t> values);
  void WriteI64Array(Span<const int64_t> values);
  void WriteI32Array(Span<const int32_t> values);
  void WriteDoubleArray(Span<const double> values);

  /// Zero-pads so the next write lands on a multiple of `alignment` bytes
  /// *relative to the buffer start*. Sections are placed at 8-aligned file
  /// offsets, so 8-alignment here is 8-alignment on disk — what the
  /// zero-copy mapped views require of their counter arrays.
  void AlignTo(size_t alignment);

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }

 private:
  void WriteLittleEndian(const void* value, size_t size);

  std::vector<uint8_t> buffer_;
};

/// Single source of truth for host byte order, shared by the codec
/// (ByteWriter/ByteReader) and the zero-copy load helpers below so the
/// two paths can never disagree about what the same bytes mean.
/// Detected via __BYTE_ORDER__ (GCC/Clang); every _WIN32 target is
/// little-endian; any other toolchain must extend this before building.
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
#define OPTHASH_IO_HOST_LITTLE_ENDIAN \
  (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
#elif defined(_WIN32)
#define OPTHASH_IO_HOST_LITTLE_ENDIAN 1
#else
#error "opthash io: unknown host byte order; extend HostIsLittleEndian()"
#endif

constexpr bool HostIsLittleEndian() {
  return OPTHASH_IO_HOST_LITTLE_ENDIAN != 0;
}

/// Portable byte reversals (compilers lower these shift patterns to a
/// single bswap); only reached on big-endian hosts.
constexpr uint32_t ByteSwap32(uint32_t v) {
  v = ((v & 0x00FF00FFu) << 8) | ((v >> 8) & 0x00FF00FFu);
  return (v << 16) | (v >> 16);
}

constexpr uint64_t ByteSwap64(uint64_t v) {
  v = ((v & 0x00FF00FF00FF00FFull) << 8) |
      ((v >> 8) & 0x00FF00FF00FF00FFull);
  v = ((v & 0x0000FFFF0000FFFFull) << 16) |
      ((v >> 16) & 0x0000FFFF0000FFFFull);
  return (v << 32) | (v >> 32);
}

/// Unaligned-safe little-endian loads for the zero-copy mapped readers:
/// a single memcpy compiles to one plain load on x86/ARM and stays
/// UBSan-clean regardless of pointer alignment.
inline uint64_t LoadLittleU64(const uint8_t* at) {
  uint64_t value = 0;
  std::memcpy(&value, at, sizeof(value));
  if (!HostIsLittleEndian()) value = ByteSwap64(value);
  return value;
}

inline uint32_t LoadLittleU32(const uint8_t* at) {
  uint32_t value = 0;
  std::memcpy(&value, at, sizeof(value));
  if (!HostIsLittleEndian()) value = ByteSwap32(value);
  return value;
}

inline double LoadLittleDouble(const uint8_t* at) {
  const uint64_t bits = LoadLittleU64(at);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// \brief Bounds-checked little-endian decoder over a borrowed byte range.
///
/// The mirror of ByteWriter: every Read* returns a Status-carrying Result
/// (or Status for bulk reads) instead of crashing, so truncated or corrupt
/// snapshots surface as clean InvalidArgument errors. The reader does NOT
/// own the bytes; the caller keeps them alive (snapshot readers hand out
/// ByteReaders over their section payloads).
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(Span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();

  /// Fills `out` with `count` elements; fails without partial writes
  /// becoming visible guarantees (contents unspecified on error).
  Status ReadU64Array(std::vector<uint64_t>& out, size_t count);
  Status ReadI64Array(std::vector<int64_t>& out, size_t count);
  Status ReadI32Array(std::vector<int32_t>& out, size_t count);
  Status ReadDoubleArray(std::vector<double>& out, size_t count);

  /// Skips pad bytes so the cursor sits at a multiple of `alignment`
  /// relative to the start of this reader's range.
  Status AlignTo(size_t alignment);

  /// Borrowed view of the next `size` bytes; advances the cursor.
  Result<Span<const uint8_t>> ReadSpan(size_t size);

  size_t remaining() const { return size_ - offset_; }
  size_t offset() const { return offset_; }

  /// Fails unless every byte has been consumed — snapshots reject trailing
  /// garbage rather than silently ignoring it.
  Status ExpectFullyConsumed() const;

 private:
  Status Take(void* out, size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace opthash::io

/// Binds `var` to the value of a Result-returning expression, or
/// propagates the error Status out of the enclosing function. Used
/// throughout the Deserialize implementations to keep the happy path
/// readable without losing per-field error reporting.
#define OPTHASH_IO_ASSIGN(var, expr)              \
  auto var##_or = (expr);                         \
  if (!var##_or.ok()) return var##_or.status();   \
  const auto var = std::move(var##_or).value()

/// Propagates a non-OK Status out of the enclosing function.
#define OPTHASH_IO_RETURN_IF_ERROR(expr)     \
  do {                                       \
    const ::opthash::Status status = (expr); \
    if (!status.ok()) return status;         \
  } while (0)

#endif  // OPTHASH_IO_BYTES_H_
