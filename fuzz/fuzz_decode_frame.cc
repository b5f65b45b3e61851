// Fuzz harness for the wire-frame decode surface: the bytes here are
// exactly what a hostile client can put after a length prefix. Every
// decoder must return a clean Status/Result on garbage — no crash, no
// over-read (ASan enforces the latter when enabled). Decoders are run
// unconditionally, not just the one matching the type byte: type
// confusion is a required rejection path, and each decoder owns its own
// type check. A key or estimates batch that does decode must carry
// exactly the elements the per-element little-endian loads read from its
// body, bit for bit.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "io/bytes.h"
#include "server/protocol.h"

namespace {

// The harness deliberately ignores rejection Statuses — the invariant
// under fuzz is "no crash", not "no error". Named (not `(void)`) so the
// discards are greppable as intentional.
void ExpectedRejectionIsFine(const opthash::Status& status) {
  (void)status;
}

// Bytes of the type byte and u32 count ahead of a batch body.
constexpr size_t kBatchHeader = 1 + sizeof(uint32_t);

// Traps unless `values` holds count elements, the i-th equal in bits to
// the u64 at body offset 8i.
template <typename T>
void CheckBatchBody(const std::vector<T>& values, const uint8_t* data,
                    size_t size) {
  if (size < kBatchHeader ||
      values.size() != opthash::io::LoadLittleU32(data + 1) ||
      size != kBatchHeader + values.size() * sizeof(uint64_t)) {
    __builtin_trap();
  }
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    if (bits != opthash::io::LoadLittleU64(data + kBatchHeader + i * 8)) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace opthash::server;  // NOLINT one TU, fuzz entry only
  const opthash::Span<const uint8_t> payload(data, size);

  auto type = PeekMessageType(payload);

  std::vector<uint64_t> keys;
  for (const MessageType key_kind :
       {MessageType::kQuery, MessageType::kIngest}) {
    if (DecodeKeyRequest(payload, key_kind, keys).ok()) {
      CheckBatchBody(keys, data, size);
    }
  }
  for (const MessageType empty_kind :
       {MessageType::kStats, MessageType::kPing, MessageType::kSnapshot,
        MessageType::kShutdown, MessageType::kMetrics,
        MessageType::kWindowStats, MessageType::kPong}) {
    ExpectedRejectionIsFine(DecodeEmptyMessage(payload, empty_kind));
  }

  std::vector<double> estimates;
  if (DecodeEstimatesResponse(payload, estimates).ok()) {
    CheckBatchBody(estimates, data, size);
  }
  if (auto ack = DecodeAckResponse(payload); ack.ok()) (void)*ack;
  if (auto stats = DecodeStatsResponse(payload); stats.ok()) {
    (void)stats.value().items_ingested;
  }
  if (auto k = DecodeTopKRequest(payload); k.ok()) (void)*k;
  std::vector<opthash::sketch::HeavyHitter> hitters;
  ExpectedRejectionIsFine(DecodeTopKReply(payload, hitters));
  std::string text;
  ExpectedRejectionIsFine(DecodeMetricsReply(payload, text));
  if (auto window = DecodeWindowStatsReply(payload); window.ok()) {
    (void)window.value().window_counts.size();
  }
  opthash::Status remote = opthash::Status::OK();
  ExpectedRejectionIsFine(DecodeErrorResponse(payload, remote));

  (void)type;
  return 0;
}
