#ifndef OPTHASH_SERVER_SERVER_H_
#define OPTHASH_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "server/event_loop.h"
#include "server/latency_histogram.h"
#include "server/protocol.h"
#include "server/served_model.h"
#include "server/snapshot_rotator.h"
#include "stream/sharded_ingest.h"

namespace opthash::server {

/// \brief Everything one daemon instance needs to run.
struct ServerConfig {
  /// Unix-domain socket path (empty = no Unix listener). At least one of
  /// socket_path / listen_address must be set.
  std::string socket_path;
  /// TCP listen target as "host:port" (empty = no TCP listener). Port 0
  /// lets the kernel pick; Server::tcp_port() reports the bound port.
  std::string listen_address;
  /// Sharded-ingest geometry applied to every ingest request block.
  stream::ShardedIngestConfig ingest;
  /// Background snapshot rotation; disabled when `rotation.dir` is empty.
  RotationConfig rotation;
  /// listen(2) backlog (shared by both listeners).
  int backlog = 128;
  /// Accept-loop and event-loop poll cadence; bounds shutdown latency
  /// and the idle-timeout sweep granularity.
  int accept_poll_millis = 100;
  /// Live sessions across both transports; one past the limit is
  /// answered with a kError(FailedPrecondition) frame and closed.
  size_t max_connections = 1024;
  /// Sessions with no read/write progress for this long are closed
  /// (0 = never). Also disconnects peers that stop reading replies.
  double idle_timeout_seconds = 0.0;
  /// Event-loop threads (0 = one per hardware thread). Connections are
  /// spread round-robin; each runs on exactly one loop.
  size_t event_threads = 0;
  /// Per-session cap on buffered unread reply bytes; a session exceeding
  /// it (a reader that stopped reading) is disconnected.
  size_t max_write_buffer = 32u << 20;

  Status Validate() const;
};

/// \brief The opthash serving daemon core: accepts sessions on a
/// Unix-domain socket and/or a TCP listener, answers the wire protocol
/// of server/protocol.h through an epoll-driven event-loop pool (one
/// thread per core, not per connection), and keeps the model durable
/// through background snapshot rotation.
///
/// Concurrency model (one writer, many readers):
///  - sessions are spread over the event-loop pool; each session's
///    buffers and ServedModel::QueryContext belong to one loop thread,
///    so query requests execute concurrently under a shared model lock
///    with zero steady-state allocation;
///  - an ingest request hands the model lock to ServedModel::Ingest,
///    which takes it exclusively only while counters change: a
///    single-threaded count-min or CountSketch block is hashed first and
///    only its scatter-add runs under the lock; a bundle counts its
///    block's bucket deltas first, at any `--threads`, and only folds
///    them under the lock; conservative count-min, mg, ss, lcms,
///    windowed rings and every other `--threads > 1` ingest hold it for
///    the whole block, and a read-only mapped model rejects the request
///    without taking it. One request block is still
///    the unit of atomicity (a query or snapshot never splits a block);
///  - snapshot rotation serializes the model under the *shared* lock
///    (rotation runs concurrently with queries, never with ingest).
///
/// Both transports speak the identical framing and error contract: the
/// TCP plane answers byte-identically to Unix-socket mode. The embedded
/// library form (Start/Wait/RequestShutdown) is what the opthash_serve
/// binary, the in-process tests, and the serving benchmarks all drive —
/// the daemon has no behavior the tests cannot reach.
class Server {
 public:
  Server(ServerConfig config, std::unique_ptr<ServedModel> model);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener(s), starts the rotator and the event-loop pool.
  /// Fails (leaving nothing running) on an invalid config, an unbindable
  /// socket, or rotation configured on a read-only model.
  Status Start();

  /// Blocks until shutdown is requested (client `shutdown` request or
  /// RequestShutdown from another thread, e.g. a signal handler's waker).
  void Wait();

  /// Initiates shutdown: stop accepting, flush and close every session,
  /// stop the rotator. Idempotent, callable from any thread; the
  /// destructor runs it too.
  void RequestShutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Port the TCP listener actually bound (0 when TCP is off) — the
  /// connect target when `listen_address` asked for port 0.
  uint16_t tcp_port() const { return tcp_port_; }

  /// Live sessions across both transports.
  size_t connections() const;
  /// Sessions the daemon cut loose: idle past the timeout, or buffering
  /// more than max_write_buffer of unread replies.
  uint64_t sessions_closed_idle() const;
  uint64_t sessions_closed_backpressure() const;
  /// Connections answered with the over-limit error and closed.
  uint64_t sessions_rejected() const { return sessions_rejected_.load(); }
  /// Rotations that failed this run (forwarded from the rotator) — a
  /// daemon that stopped checkpointing must show it in stats, not only
  /// on stderr.
  uint64_t snapshot_failures() const { return rotator_->failed_rotations(); }
  /// Listener close/unlink failures during shutdown. Nonzero means the
  /// teardown leaked an fd or left a stale socket file behind; tests and
  /// the serve binary's exit log check this instead of the errors
  /// vanishing into ignored return values.
  uint64_t teardown_errors() const { return teardown_errors_.load(); }

  /// Current operational counters (the same numbers a kStats request
  /// returns).
  ServerStatsSnapshot StatsNow() const;

  /// The kMetrics scrape body: every operational counter and gauge plus
  /// the query-latency summary (p50/p99) in Prometheus text exposition
  /// format. Also what `opthash_client metrics` prints verbatim.
  std::string RenderPrometheusMetrics() const;

  const ServedModel& model() const { return *model_; }
  SnapshotRotator& rotator() { return *rotator_; }

 private:
  void AcceptLoop();
  /// Decodes and answers one request; fills `response_frame`. Returns
  /// false when the session must end (protocol error or shutdown).
  bool HandleRequest(Span<const uint8_t> payload,
                     ServedModel::QueryContext& context,
                     std::vector<uint64_t>& keys,
                     std::vector<double>& estimates,
                     std::vector<sketch::HeavyHitter>& hitters,
                     std::vector<uint8_t>& response_frame);
  /// Sets stop_ under shutdown_mutex_ and notifies Wait()ers — the store
  /// must happen inside the mutex or a waiter between its predicate
  /// check and re-blocking would miss the notify forever.
  void SignalStop();

  const ServerConfig config_;
  std::unique_ptr<ServedModel> model_;
  std::unique_ptr<SnapshotRotator> rotator_;
  std::unique_ptr<EventLoopPool> pool_;

  // One writer (ingest) / many readers (queries, rotation serialization).
  mutable std::shared_mutex model_mutex_;

  int listen_fd_ = -1;      // Unix transport, -1 when off.
  int tcp_listen_fd_ = -1;  // TCP transport, -1 when off.
  uint16_t tcp_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  std::mutex shutdown_call_mutex_;  // Serializes RequestShutdown callers.

  // Stats.
  Timer uptime_;
  std::atomic<uint64_t> items_ingested_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> query_requests_{0};
  std::atomic<uint64_t> ingest_requests_{0};
  std::atomic<uint64_t> topk_requests_{0};
  std::atomic<uint64_t> window_stats_requests_{0};
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> teardown_errors_{0};
  mutable std::mutex latency_mutex_;
  LatencyHistogram query_latency_;
};

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_SERVER_H_
