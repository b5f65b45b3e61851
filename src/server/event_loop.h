#ifndef OPTHASH_SERVER_EVENT_LOOP_H_
#define OPTHASH_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/timer.h"

namespace opthash::server {

/// \brief Readiness-driven connection handling for the serving daemon:
/// one thread per EventLoop (the pool sizes itself to the core count, not
/// the connection count), non-blocking sockets, per-connection read/write
/// buffering of the length-prefixed framing, idle-timeout reaping and
/// write backpressure.
///
/// Each adopted connection belongs to exactly one loop; all its state —
/// buffers, session scratch, the frame parser — is touched only by that
/// loop's thread, so sessions need no locking of their own. The frame
/// handler runs inline on the loop thread: handlers must stay short-ish
/// (the model's batched estimate under a shared lock qualifies; ingest
/// briefly serializes, exactly as it did under thread-per-session).
///
/// Error semantics match the thread-per-session daemon byte for byte:
/// a framing violation (oversized length prefix, peer vanishing
/// mid-frame) answers one kError frame and then hangs up; handler-level
/// protocol errors close after the response; semantic errors keep the
/// session. Backends: epoll on Linux, poll(2) on other POSIX systems.
struct EventLoopConfig {
  /// Wait cap per loop iteration; bounds shutdown latency and the
  /// idle-timeout sweep cadence.
  int poll_millis = 100;
  /// Connections with no read/write progress for this long are closed
  /// (0 = never). Also the slow-reader guillotine: a peer that stops
  /// reading its replies makes no progress and gets reaped.
  double idle_timeout_seconds = 0.0;
  /// Hard cap on bytes buffered for one connection's unread replies;
  /// beyond it the connection is closed (a slow reader must not grow the
  /// daemon's memory without bound).
  size_t max_write_buffer = 32u << 20;
  /// Above this many pending reply bytes the loop stops READING from the
  /// connection until the peer drains (0 = max_write_buffer / 2).
  size_t write_high_watermark = 0;

  Status Validate() const;
};

class EventLoop {
 public:
  /// Per-connection server-side state (query context + scratch); created
  /// by the factory when a connection is adopted, destroyed on close,
  /// only ever touched by the owning loop thread.
  class SessionState {
   public:
    virtual ~SessionState() = default;
  };
  using SessionFactory = std::function<std::unique_ptr<SessionState>()>;

  /// Handles one complete request frame payload; renders one complete
  /// response frame (length prefix included) into `response`. Returning
  /// false closes the connection once the response has flushed.
  using FrameHandler = std::function<bool(
      SessionState& session, Span<const uint8_t> payload,
      std::vector<uint8_t>& response)>;

  EventLoop(EventLoopConfig config, SessionFactory factory,
            FrameHandler handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Status Start();
  /// Stops the loop thread and closes every connection (one best-effort
  /// flush of pending replies first). Idempotent.
  void Stop();

  /// Hands a connected socket to this loop (thread-safe; the loop takes
  /// ownership and sets it non-blocking). Fails once Stop() has run.
  Status Adopt(int fd);

  /// Live connections, counting adoptions still in the mailbox — the
  /// accept thread's connection-limit check must see them immediately.
  size_t connections() const {
    return connection_count_.load(std::memory_order_acquire);
  }
  uint64_t closed_idle() const { return closed_idle_.load(); }
  uint64_t closed_backpressure() const {
    return closed_backpressure_.load();
  }

 private:
  struct Connection;
  class Poller;

  void Run();
  void AdoptPending();
  void HandleReadable(Connection& connection);
  void ParseFrames(Connection& connection);
  void FlushWrites(Connection& connection);
  void UpdateInterest(Connection& connection);
  void CloseConnection(int fd);
  void SweepIdle();
  void Wake();

  const EventLoopConfig config_;
  const SessionFactory factory_;
  const FrameHandler handler_;

  std::unique_ptr<Poller> poller_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::mutex pending_mutex_;
  std::vector<int> pending_adopt_;

  // Loop-thread-only state.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::vector<uint8_t> response_scratch_;
  std::vector<int> doomed_scratch_;
  Timer clock_;

  std::atomic<size_t> connection_count_{0};
  std::atomic<uint64_t> closed_idle_{0};
  std::atomic<uint64_t> closed_backpressure_{0};
};

/// N independent loops (default: one per hardware thread) with
/// round-robin connection placement — the serving daemon's replacement
/// for thread-per-session.
class EventLoopPool {
 public:
  EventLoopPool(size_t loops, EventLoopConfig config,
                EventLoop::SessionFactory factory,
                EventLoop::FrameHandler handler);

  Status Start();
  void Stop();

  Status Adopt(int fd);
  size_t connections() const;
  uint64_t closed_idle() const;
  uint64_t closed_backpressure() const;
  size_t size() const { return loops_.size(); }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_{0};
};

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_EVENT_LOOP_H_
