#ifndef OPTHASH_SERVER_SOCKET_IO_H_
#define OPTHASH_SERVER_SOCKET_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace opthash::server {

/// POSIX Unix-domain stream sockets plus the frame read/write loop shared
/// by the server's session threads and the client library.

/// Creates, binds and listens on a Unix-domain stream socket at `path`.
/// A stale socket file from a crashed previous daemon is unlinked first
/// (the snapshot rotation directory, not the socket, is the durable
/// state). Fails if `path` exceeds the platform's sun_path limit.
Result<int> ListenUnix(const std::string& path, int backlog = 16);

/// Connects to a listening Unix-domain socket.
Result<int> ConnectUnix(const std::string& path);

/// One accepted connection plus which listener produced it (the daemon
/// polls its Unix and TCP listeners together; the index tells it which
/// transport the session arrived on).
struct AcceptedSocket {
  int fd = -1;
  size_t listener_index = 0;
};

/// accept(2) across several listening sockets with one poll timeout;
/// accept(2) itself is transport-agnostic, so the fds may mix AF_UNIX
/// and AF_INET listeners. Returns the accepted socket, NotFound on
/// timeout (no pending connection), or an error Status.
Result<AcceptedSocket> AcceptAnyWithTimeout(Span<const int> listen_fds,
                                            int timeout_millis);

/// O_NONBLOCK via fcntl — the event loop's sockets must never park a
/// loop thread in read(2)/send(2).
Status SetNonBlocking(int fd);

/// close(2); negative fds are a no-op (true). Returns false when the
/// kernel reports a close failure — callers tearing down a daemon count
/// these (Server::teardown_errors) instead of dropping them, because a
/// failed close can leak the fd and, on some filesystems, lose buffered
/// errors. Best-effort callers may still ignore the result (bool is not
/// [[nodiscard]] — discarding it is an explicit local decision).
bool CloseSocket(int fd);

/// Writes all of `bytes` (a complete frame: length prefix + payload),
/// looping over partial writes and EINTR.
Status WriteAll(int fd, Span<const uint8_t> bytes);

/// Reads one frame's payload into `payload` (cleared; capacity reused).
/// Returns NotFound("connection closed") on clean EOF at a frame
/// boundary, InvalidArgument on a truncated frame or an oversized length
/// prefix (checked BEFORE allocating), Internal on socket errors.
Status ReadFramePayload(int fd, std::vector<uint8_t>& payload);

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_SOCKET_IO_H_
