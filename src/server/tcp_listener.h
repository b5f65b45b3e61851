#ifndef OPTHASH_SERVER_TCP_LISTENER_H_
#define OPTHASH_SERVER_TCP_LISTENER_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace opthash::server {

/// TCP transport for the opthash serving protocol. The framing layer
/// (server/protocol.h) is byte-stream agnostic, so TCP and Unix-domain
/// sessions speak the identical wire format; this header only contributes
/// listening/connecting and the `host:port` address syntax shared by
/// `opthash_serve --listen` and the client tools.

/// A parsed `host:port` listen/connect target.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Parses "host:port" (the split is at the LAST colon, so a ":"-free host
/// is required — numeric IPv6 is out of scope for now). Port 0 is allowed
/// for listeners (the kernel picks; see ListeningTcp::port) but rejected
/// by callers that need a connectable address.
Result<HostPort> ParseHostPort(const std::string& address);

/// True when `target` parses as host:port rather than a socket path —
/// how Client::Connect and the tools route one target string to the
/// right transport. Paths (anything with '/', or no parseable port)
/// stay Unix-domain.
bool LooksLikeHostPort(const std::string& target);

/// ListenTcp's result: the listening fd plus the actually-bound port
/// (interesting when the caller asked for port 0).
struct ListeningTcp {
  int fd = -1;
  uint16_t port = 0;
};

/// Resolves `host`, binds a TCP listener with SO_REUSEADDR and starts
/// listening. `host` may be a numeric address or a name ("localhost");
/// the first resolvable candidate wins.
Result<ListeningTcp> ListenTcp(const HostPort& address, int backlog = 16);

/// Connects a TCP stream to `host:port` with TCP_NODELAY set (the
/// protocol is request/response; Nagle would add 40ms stalls to every
/// small frame).
Result<int> ConnectTcp(const HostPort& address);

/// Best-effort TCP_NODELAY on an accepted connection; harmlessly a no-op
/// on non-TCP fds (Unix-domain sessions share the accept path).
void SetTcpNoDelay(int fd);

}  // namespace opthash::server

#endif  // OPTHASH_SERVER_TCP_LISTENER_H_
