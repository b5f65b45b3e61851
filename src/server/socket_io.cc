#include "server/socket_io.h"

#include <cstring>

#include "io/bytes.h"
#include "server/protocol.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace opthash::server {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// The address of the Unix-domain socket at `path`, which must fit
// sun_path with its terminating NUL.
Result<sockaddr_un> UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket path must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Result<int> ListenUnix(const std::string& path, int backlog) {
  OPTHASH_IO_ASSIGN(addr, UnixAddress(path));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  // A previous daemon that crashed leaves its socket file behind; binding
  // over it is the expected restart path. An *active* daemon is not
  // protected by this unlink — operators give each daemon its own path.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("bind " + path);
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    const Status status = Errno("listen " + path);
    ::close(fd);
    return status;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  OPTHASH_IO_ASSIGN(addr, UnixAddress(path));

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status =
        Status::NotFound("connect " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

Result<AcceptedSocket> AcceptAnyWithTimeout(Span<const int> listen_fds,
                                            int timeout_millis) {
  pollfd poll_fds[8];
  const size_t count = listen_fds.size() < 8 ? listen_fds.size() : 8;
  for (size_t i = 0; i < count; ++i) {
    poll_fds[i] = pollfd{};
    poll_fds[i].fd = listen_fds[i];
    poll_fds[i].events = POLLIN;
  }
  const int ready =
      ::poll(poll_fds, static_cast<nfds_t>(count), timeout_millis);
  if (ready < 0) {
    if (errno == EINTR) return Status::NotFound("accept interrupted");
    return Errno("poll");
  }
  if (ready == 0) return Status::NotFound("accept timeout");
  for (size_t i = 0; i < count; ++i) {
    if ((poll_fds[i].revents & POLLIN) == 0) continue;
    const int fd = ::accept(poll_fds[i].fd, nullptr, nullptr);
    if (fd < 0) return Errno("accept");
    AcceptedSocket accepted;
    accepted.fd = fd;
    accepted.listener_index = i;
    return accepted;
  }
  return Status::NotFound("accept timeout");
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

bool CloseSocket(int fd) {
  if (fd < 0) return true;
  return ::close(fd) == 0;
}

Status WriteAll(int fd, Span<const uint8_t> bytes) {
  // MSG_NOSIGNAL: a peer that hung up must surface as an EPIPE Status,
  // not a process-killing SIGPIPE — the client library's error contract
  // cannot depend on every binary remembering to ignore the signal.
#ifdef MSG_NOSIGNAL
  constexpr int kSendFlags = MSG_NOSIGNAL;
#else
  constexpr int kSendFlags = 0;
#endif
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    if (n == 0) return Status::Internal("send returned 0");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

// Reads exactly `size` bytes. `at_boundary` distinguishes a clean peer
// close (EOF before any byte of a new frame) from mid-frame truncation.
Status ReadExact(int fd, uint8_t* out, size_t size, bool at_boundary) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    if (n == 0) {
      if (at_boundary && got == 0) {
        return Status::NotFound("connection closed");
      }
      return Status::InvalidArgument("truncated frame: peer closed mid-read");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status ReadFramePayload(int fd, std::vector<uint8_t>& payload) {
  uint8_t header[kFrameHeaderSize];
  OPTHASH_IO_RETURN_IF_ERROR(
      ReadExact(fd, header, sizeof(header), /*at_boundary=*/true));
  uint32_t length = 0;
  std::memcpy(&length, header, sizeof(length));
  if (!io::HostIsLittleEndian()) length = io::ByteSwap32(length);
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte limit");
  }
  payload.clear();
  payload.resize(length);
  if (length == 0) return Status::OK();
  return ReadExact(fd, payload.data(), length, /*at_boundary=*/false);
}

}  // namespace opthash::server
