#ifndef OPTHASH_SERVER_CLIENT_H_
#define OPTHASH_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "server/protocol.h"

namespace opthash::server {

/// \brief Synchronous client for the opthash serving protocol: one
/// connection, one outstanding request at a time (the protocol has no
/// request ids — responses arrive in request order). This is the library
/// behind `opthash_client`, the serving tests and the latency benchmark.
///
/// Errors come in two layers and keep their layer: transport/protocol
/// failures surface as this machine's Status (and poison the connection
/// — callers reconnect); errors the *server* sent back are returned as
/// the remote Status, prefixed "server: ", with the connection still
/// usable. Frame buffers are reused across calls, so a warm client
/// allocates only for result vectors the caller keeps.
///
/// Move-only; the destructor closes the connection.
class Client {
 public:
  /// Connects to a serving daemon. `target` is either a Unix-domain
  /// socket path ("/run/opthash.sock") or a TCP "host:port"
  /// ("127.0.0.1:9090") — anything containing '/' or without a parseable
  /// port is treated as a path. Both transports speak the identical
  /// protocol; everything below is transport-blind.
  static Result<Client> Connect(const std::string& target);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Round-trip liveness probe.
  Status Ping();

  /// Batched frequency query: out[i] = estimate of keys[i]. `out` is
  /// cleared and refilled (capacity reused). Key spans larger than one
  /// frame (kMaxKeysPerFrame) are transparently split across requests.
  Status Query(Span<const uint64_t> keys, std::vector<double>& out);

  /// Ingests one block of arrivals; returns the server's total items
  /// ingested this run (after this block). Split across frames like
  /// Query — note each frame is then its own atomicity unit on the
  /// server.
  Result<uint64_t> Ingest(Span<const uint64_t> keys);

  Result<ServerStatsSnapshot> Stats();

  /// The server's k heaviest keys, heaviest first, in the shared
  /// HeavyHitter vocabulary. `out` is cleared and refilled (capacity
  /// reused). Fails with the server's FailedPrecondition when the served
  /// artifact kind cannot answer top-k.
  Status TopK(uint32_t k, std::vector<sketch::HeavyHitter>& out);

  /// The server's Prometheus text-exposition scrape body.
  Status Metrics(std::string& text);

  /// Ring position + per-window arrival counts of a windowed model.
  /// Fails with the server's FailedPrecondition when the served artifact
  /// counts over the whole stream instead of a sliding window.
  Result<WindowStatsSnapshot> WindowStats();

  /// Forces one snapshot rotation; returns the sequence number written.
  Result<uint64_t> Snapshot();

  /// Asks the daemon to shut down cleanly (acknowledged before it does).
  Status Shutdown();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// The single request/reply path every verb funnels through: sends
  /// request_frame_, reads one response payload into response_payload_,
  /// surfaces a kError reply as the remote Status, and returns the reply
  /// payload for the verb to decode.
  Result<Span<const uint8_t>> Call();

  int fd_ = -1;
  std::vector<uint8_t> request_frame_;
  std::vector<uint8_t> response_payload_;
  /// One reply's estimates, decoded before Query appends them to `out`.
  std::vector<double> chunk_estimates_;
};

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_CLIENT_H_
