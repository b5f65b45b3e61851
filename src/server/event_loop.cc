#include "server/event_loop.h"

#include <cstring>
#include <utility>

#include "io/bytes.h"
#include "server/protocol.h"
#include "server/socket_io.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/epoll.h>
#else
#include <poll.h>
#endif

namespace opthash::server {

Status EventLoopConfig::Validate() const {
  if (poll_millis < 1) {
    return Status::InvalidArgument("event loop poll cadence must be >= 1ms");
  }
  if (idle_timeout_seconds < 0.0) {
    return Status::InvalidArgument("idle timeout must be >= 0");
  }
  if (max_write_buffer < kMaxFramePayload + 64) {
    // One maximum response frame must always fit, or a single legitimate
    // full-size reply would count as "backpressure" and kill the session.
    return Status::InvalidArgument(
        "write buffer cap must hold at least one full frame (" +
        std::to_string(kMaxFramePayload + 64) + " bytes)");
  }
  if (write_high_watermark > max_write_buffer) {
    return Status::InvalidArgument(
        "write high watermark cannot exceed the write buffer cap");
  }
  return Status::OK();
}

/// One adopted socket: buffers, interest flags and session scratch, all
/// owned by the loop thread.
struct EventLoop::Connection {
  int fd = -1;
  std::vector<uint8_t> read_buffer;
  std::vector<uint8_t> write_buffer;
  size_t write_head = 0;  // Bytes of write_buffer already sent.
  bool close_after_flush = false;
  bool eof = false;     // Peer closed its write side.
  bool doomed = false;  // Close at the next opportunity, no more flushing.
  bool want_read = true;
  bool want_write = false;
  bool reg_read = true;  // Interest currently registered with the poller.
  bool reg_write = false;
  double last_active = 0.0;
  std::unique_ptr<SessionState> session;
};

/// Readiness backend: epoll on Linux, poll(2) on other POSIX systems.
/// The loop never blocks in the poller longer than poll_millis, so stop
/// flags and adoption mailboxes are observed promptly even without a
/// wake byte.
class EventLoop::Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
  };

  ~Poller() { Close(); }

  Status Init() {
#ifdef __linux__
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::Internal(std::string("epoll_create1: ") +
                              std::strerror(errno));
    }
#endif
    return Status::OK();
  }

  void Close() {
#ifdef __linux__
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    epoll_fd_ = -1;
#else
    interest_.clear();
#endif
  }

  Status Add(int fd, bool want_read, bool want_write) {
#ifdef __linux__
    epoll_event event{};
    event.events = Mask(want_read, want_write);
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      return Status::Internal(std::string("epoll_ctl add: ") +
                              std::strerror(errno));
    }
#else
    interest_[fd] = {want_read, want_write};
#endif
    return Status::OK();
  }

  void Mod(int fd, bool want_read, bool want_write) {
#ifdef __linux__
    epoll_event event{};
    event.events = Mask(want_read, want_write);
    event.data.fd = fd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
#else
    interest_[fd] = {want_read, want_write};
#endif
  }

  void Del(int fd) {
#ifdef __linux__
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
#else
    interest_.erase(fd);
#endif
  }

  void Wait(int timeout_millis, std::vector<Event>& events) {
    events.clear();
#ifdef __linux__
    epoll_event raw[256];
    const int ready = ::epoll_wait(epoll_fd_, raw, 256, timeout_millis);
    for (int i = 0; i < ready; ++i) {
      Event event;
      event.fd = raw[i].data.fd;
      // Errors and hangups surface as both-ready: the read()/send() on
      // the fd then reports the precise condition.
      const bool trouble =
          (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      event.readable = trouble || (raw[i].events & EPOLLIN) != 0;
      event.writable = trouble || (raw[i].events & EPOLLOUT) != 0;
      events.push_back(event);
    }
#else
    poll_scratch_.clear();
    for (const auto& [fd, want] : interest_) {
      pollfd entry{};
      entry.fd = fd;
      if (want.first) entry.events |= POLLIN;
      if (want.second) entry.events |= POLLOUT;
      poll_scratch_.push_back(entry);
    }
    const int ready = ::poll(poll_scratch_.data(), poll_scratch_.size(),
                             timeout_millis);
    if (ready <= 0) return;
    for (const pollfd& entry : poll_scratch_) {
      if (entry.revents == 0) continue;
      Event event;
      event.fd = entry.fd;
      const bool trouble =
          (entry.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      event.readable = trouble || (entry.revents & POLLIN) != 0;
      event.writable = trouble || (entry.revents & POLLOUT) != 0;
      events.push_back(event);
    }
#endif
  }

 private:
#ifdef __linux__
  static uint32_t Mask(bool want_read, bool want_write) {
    uint32_t mask = 0;
    if (want_read) mask |= EPOLLIN;
    if (want_write) mask |= EPOLLOUT;
    return mask;
  }
  int epoll_fd_ = -1;
#else
  std::unordered_map<int, std::pair<bool, bool>> interest_;
  std::vector<pollfd> poll_scratch_;
#endif
};

EventLoop::EventLoop(EventLoopConfig config, SessionFactory factory,
                     FrameHandler handler)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      handler_(std::move(handler)) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  OPTHASH_IO_RETURN_IF_ERROR(config_.Validate());
  OPTHASH_CHECK_MSG(!started_, "EventLoop::Start called twice");
  poller_ = std::make_unique<Poller>();
  OPTHASH_IO_RETURN_IF_ERROR(poller_->Init());
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    poller_.reset();
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  ::fcntl(wake_read_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);
  const Status added = poller_->Add(wake_read_fd_, true, false);
  if (!added.ok()) {
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
    poller_.reset();
    return added;
  }
  stop_.store(false, std::memory_order_release);
  clock_.Restart();
  started_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    Wake();
    thread_.join();
  }
  {
    // Adoptions that raced the shutdown never reached the loop thread.
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (int fd : pending_adopt_) {
      ::close(fd);
      connection_count_.fetch_sub(1, std::memory_order_acq_rel);
    }
    pending_adopt_.clear();
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
  }
  poller_.reset();
}

Status EventLoop::Adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (stop_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("event loop is stopped");
    }
    pending_adopt_.push_back(fd);
    connection_count_.fetch_add(1, std::memory_order_acq_rel);
  }
  Wake();
  return Status::OK();
}

void EventLoop::Wake() {
  if (wake_write_fd_ < 0) return;
  const uint8_t byte = 1;
  // A full pipe already guarantees a pending wake-up.
  (void)!::write(wake_write_fd_, &byte, 1);
}

void EventLoop::Run() {
  std::vector<Poller::Event> events;
  while (true) {
    AdoptPending();
    if (stop_.load(std::memory_order_acquire)) break;
    poller_->Wait(config_.poll_millis, events);
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        uint8_t drain[64];
        while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(event.fd);
      if (it == connections_.end()) continue;
      Connection& connection = *it->second;
      if (event.writable && !connection.doomed) FlushWrites(connection);
      if (event.readable && !connection.doomed) HandleReadable(connection);
      if (connection.doomed) doomed_scratch_.push_back(event.fd);
    }
    for (int fd : doomed_scratch_) CloseConnection(fd);
    doomed_scratch_.clear();
    if (config_.idle_timeout_seconds > 0.0) SweepIdle();
  }
  // Shutdown: give queued replies (e.g. the shutdown ack) one
  // best-effort non-blocking flush, then close everything.
  doomed_scratch_.clear();
  for (auto& [fd, connection] : connections_) {
    if (!connection->doomed) FlushWrites(*connection);
    doomed_scratch_.push_back(fd);
  }
  for (int fd : doomed_scratch_) CloseConnection(fd);
  doomed_scratch_.clear();
}

void EventLoop::AdoptPending() {
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending.swap(pending_adopt_);
  }
  for (int fd : pending) {
    const Status ready = SetNonBlocking(fd);
    Status added = ready;
    if (ready.ok()) added = poller_->Add(fd, true, false);
    if (!added.ok()) {
      ::close(fd);
      connection_count_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connection->session = factory_();
    connection->last_active = clock_.ElapsedSeconds();
    connections_[fd] = std::move(connection);
  }
}

void EventLoop::HandleReadable(Connection& connection) {
  // One bounded chunk per readiness event: level-triggered polling
  // re-fires while bytes remain, so no single firehose session can
  // starve its loop-mates.
  uint8_t chunk[64 * 1024];
  const ssize_t received = ::read(connection.fd, chunk, sizeof(chunk));
  if (received < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    connection.doomed = true;
    return;
  }
  if (received == 0) {
    connection.eof = true;
    connection.want_read = false;
    if (!connection.read_buffer.empty() && !connection.close_after_flush) {
      // Peer vanished mid-frame: answer error-then-hangup, best effort
      // (a half-closed peer can still read the verdict).
      EncodeErrorResponse(
          Status::InvalidArgument("truncated frame: peer closed mid-read"),
          response_scratch_);
      connection.write_buffer.insert(connection.write_buffer.end(),
                                     response_scratch_.begin(),
                                     response_scratch_.end());
      connection.read_buffer.clear();
    }
    if (connection.write_buffer.size() == connection.write_head) {
      connection.doomed = true;
      return;
    }
    connection.close_after_flush = true;
    FlushWrites(connection);
    return;
  }
  connection.last_active = clock_.ElapsedSeconds();
  connection.read_buffer.insert(connection.read_buffer.end(), chunk,
                                chunk + received);
  ParseFrames(connection);
}

void EventLoop::ParseFrames(Connection& connection) {
  std::vector<uint8_t>& buffer = connection.read_buffer;
  size_t head = 0;
  while (!connection.close_after_flush && !connection.doomed) {
    const size_t available = buffer.size() - head;
    if (available < kFrameHeaderSize) break;
    uint32_t length = 0;
    std::memcpy(&length, buffer.data() + head, sizeof(length));
    if (!io::HostIsLittleEndian()) length = io::ByteSwap32(length);
    if (length > kMaxFramePayload) {
      // Same answer-then-hangup (and the same message) the blocking
      // reader gave — rejected from the 4-byte prefix alone, before any
      // length-proportional buffering.
      EncodeErrorResponse(
          Status::InvalidArgument(
              "frame payload of " + std::to_string(length) +
              " bytes exceeds the " + std::to_string(kMaxFramePayload) +
              "-byte limit"),
          response_scratch_);
      connection.write_buffer.insert(connection.write_buffer.end(),
                                     response_scratch_.begin(),
                                     response_scratch_.end());
      connection.close_after_flush = true;
      break;
    }
    if (available - kFrameHeaderSize < length) break;  // Frame incomplete.
    const Span<const uint8_t> payload(
        buffer.data() + head + kFrameHeaderSize, length);
    const bool keep =
        handler_(*connection.session, payload, response_scratch_);
    connection.write_buffer.insert(connection.write_buffer.end(),
                                   response_scratch_.begin(),
                                   response_scratch_.end());
    head += kFrameHeaderSize + length;
    connection.last_active = clock_.ElapsedSeconds();
    if (!keep) connection.close_after_flush = true;
  }
  if (connection.close_after_flush) {
    buffer.clear();
    connection.want_read = false;
  } else if (head > 0) {
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<ptrdiff_t>(head));
  }
  FlushWrites(connection);
}

void EventLoop::FlushWrites(Connection& connection) {
#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;
#else
  constexpr int kSendFlags = 0;
#endif
  std::vector<uint8_t>& buffer = connection.write_buffer;
  while (connection.write_head < buffer.size()) {
    const ssize_t sent =
        ::send(connection.fd, buffer.data() + connection.write_head,
               buffer.size() - connection.write_head, kSendFlags);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection.doomed = true;  // Peer reset under us.
      return;
    }
    connection.write_head += static_cast<size_t>(sent);
    connection.last_active = clock_.ElapsedSeconds();
  }
  if (connection.write_head == buffer.size()) {
    buffer.clear();
    connection.write_head = 0;
    connection.want_write = false;
    if (connection.close_after_flush) {
      connection.doomed = true;
      return;
    }
    if (!connection.eof) connection.want_read = true;
  } else {
    connection.want_write = true;
    const size_t pending = buffer.size() - connection.write_head;
    if (pending > config_.max_write_buffer) {
      // The peer stopped reading its replies; cut it loose before its
      // backlog becomes the daemon's memory problem.
      closed_backpressure_.fetch_add(1);
      connection.doomed = true;
      return;
    }
    const size_t watermark = config_.write_high_watermark > 0
                                 ? config_.write_high_watermark
                                 : config_.max_write_buffer / 2;
    if (!connection.close_after_flush && !connection.eof) {
      connection.want_read = pending <= watermark;
    }
    if (connection.write_head > (1u << 20)) {
      // Compact the consumed prefix so a long drain doesn't pin it.
      buffer.erase(buffer.begin(),
                   buffer.begin() +
                       static_cast<ptrdiff_t>(connection.write_head));
      connection.write_head = 0;
    }
  }
  UpdateInterest(connection);
}

void EventLoop::UpdateInterest(Connection& connection) {
  if (connection.doomed) return;
  if (connection.want_read != connection.reg_read ||
      connection.want_write != connection.reg_write) {
    poller_->Mod(connection.fd, connection.want_read, connection.want_write);
    connection.reg_read = connection.want_read;
    connection.reg_write = connection.want_write;
  }
}

void EventLoop::SweepIdle() {
  const double now = clock_.ElapsedSeconds();
  doomed_scratch_.clear();
  for (const auto& [fd, connection] : connections_) {
    if (now - connection->last_active > config_.idle_timeout_seconds) {
      doomed_scratch_.push_back(fd);
    }
  }
  for (int fd : doomed_scratch_) {
    closed_idle_.fetch_add(1);
    CloseConnection(fd);
  }
  doomed_scratch_.clear();
}

void EventLoop::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  poller_->Del(fd);
  ::close(fd);
  connections_.erase(it);
  connection_count_.fetch_sub(1, std::memory_order_acq_rel);
}

EventLoopPool::EventLoopPool(size_t loops, EventLoopConfig config,
                             EventLoop::SessionFactory factory,
                             EventLoop::FrameHandler handler) {
  if (loops == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    loops = hardware > 0 ? hardware : 1;
  }
  loops_.reserve(loops);
  for (size_t i = 0; i < loops; ++i) {
    loops_.push_back(
        std::make_unique<EventLoop>(config, factory, handler));
  }
}

Status EventLoopPool::Start() {
  for (size_t i = 0; i < loops_.size(); ++i) {
    const Status started = loops_[i]->Start();
    if (!started.ok()) {
      for (size_t j = 0; j < i; ++j) loops_[j]->Stop();
      return started;
    }
  }
  return Status::OK();
}

void EventLoopPool::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

Status EventLoopPool::Adopt(int fd) {
  const size_t at = next_.fetch_add(1, std::memory_order_relaxed);
  return loops_[at % loops_.size()]->Adopt(fd);
}

size_t EventLoopPool::connections() const {
  size_t total = 0;
  for (const auto& loop : loops_) total += loop->connections();
  return total;
}

uint64_t EventLoopPool::closed_idle() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->closed_idle();
  return total;
}

uint64_t EventLoopPool::closed_backpressure() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->closed_backpressure();
  return total;
}

}  // namespace opthash::server
