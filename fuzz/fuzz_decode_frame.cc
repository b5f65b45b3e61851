// Fuzz harness for the wire-frame decode surface: the bytes here are
// exactly what a hostile client can put after a length prefix. Every
// decoder must return a clean Status/Result on garbage — no crash, no
// over-read (ASan enforces the latter when enabled). Decoders are run
// unconditionally, not just the one matching the type byte: type
// confusion is a required rejection path, and each decoder owns its own
// type check.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "server/protocol.h"

namespace {

// The harness deliberately ignores rejection Statuses — the invariant
// under fuzz is "no crash", not "no error". Named (not `(void)`) so the
// discards are greppable as intentional.
void ExpectedRejectionIsFine(const opthash::Status& status) {
  (void)status;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace opthash::server;  // NOLINT one TU, fuzz entry only
  const opthash::Span<const uint8_t> payload(data, size);

  auto type = PeekMessageType(payload);

  std::vector<uint64_t> keys;
  ExpectedRejectionIsFine(
      DecodeKeyRequest(payload, MessageType::kQuery, keys));
  ExpectedRejectionIsFine(
      DecodeKeyRequest(payload, MessageType::kIngest, keys));
  for (const MessageType empty_kind :
       {MessageType::kStats, MessageType::kPing, MessageType::kSnapshot,
        MessageType::kShutdown, MessageType::kMetrics,
        MessageType::kWindowStats, MessageType::kPong}) {
    ExpectedRejectionIsFine(DecodeEmptyMessage(payload, empty_kind));
  }

  std::vector<double> estimates;
  ExpectedRejectionIsFine(DecodeEstimatesResponse(payload, estimates));
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
