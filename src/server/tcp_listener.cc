#include "server/tcp_listener.h"

#include <cstring>

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace opthash::server {

Result<HostPort> ParseHostPort(const std::string& address) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("expected host:port, got: " + address);
  }
  const std::string port_text = address.substr(colon + 1);
  if (port_text.find_first_not_of("0123456789") != std::string::npos ||
      port_text.size() > 5) {
    return Status::InvalidArgument("port must be 0..65535, got: " +
                                   port_text);
  }
  const unsigned long port = std::stoul(port_text);
  if (port > 65535) {
    return Status::InvalidArgument("port must be 0..65535, got: " +
                                   port_text);
  }
  HostPort parsed;
  parsed.host = address.substr(0, colon);
  parsed.port = static_cast<uint16_t>(port);
  return parsed;
}

bool LooksLikeHostPort(const std::string& target) {
  // A '/' can only mean a filesystem path; otherwise host:port wins when
  // it parses. A bare path like "daemon.sock" has no colon and stays a
  // path; "localhost:9090" parses and goes TCP.
  if (target.find('/') != std::string::npos) return false;
  return ParseHostPort(target).ok();
}

namespace {

Result<addrinfo*> ResolveTcp(const HostPort& address, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string port_text = std::to_string(address.port);
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(address.host.c_str(), port_text.c_str(),
                               &hints, &results);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve " + address.host + ":" +
                                   port_text + ": " + ::gai_strerror(rc));
  }
  return results;
}

}  // namespace

Result<ListeningTcp> ListenTcp(const HostPort& address, int backlog) {
  auto resolved = ResolveTcp(address, /*passive=*/true);
  if (!resolved.ok()) return resolved.status();
  Status last_error = Status::Internal("no address candidates for " +
                                       address.host);
  for (addrinfo* candidate = resolved.value(); candidate != nullptr;
       candidate = candidate->ai_next) {
    const int fd = ::socket(candidate->ai_family, candidate->ai_socktype,
                            candidate->ai_protocol);
    if (fd < 0) {
      last_error = Status::Internal(std::string("socket: ") +
                                    std::strerror(errno));
      continue;
    }
    // SO_REUSEADDR: a restarted daemon must not wait out TIME_WAIT of its
    // previous incarnation's connections.
    const int enable = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    if (::bind(fd, candidate->ai_addr, candidate->ai_addrlen) != 0 ||
        ::listen(fd, backlog) != 0) {
      last_error = Status::Internal("bind/listen " + address.host + ":" +
                                    std::to_string(address.port) + ": " +
                                    std::strerror(errno));
      ::close(fd);
      continue;
    }
    ListeningTcp listening;
    listening.fd = fd;
    listening.port = address.port;
    if (address.port == 0) {
      // The kernel picked; report the real port so tests and operators
      // can connect to `--listen 127.0.0.1:0` daemons.
      sockaddr_storage bound{};
      socklen_t bound_len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                        &bound_len) == 0) {
        if (bound.ss_family == AF_INET) {
          listening.port = ntohs(
              reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
          listening.port = ntohs(
              reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
        }
      }
    }
    ::freeaddrinfo(resolved.value());
    return listening;
  }
  ::freeaddrinfo(resolved.value());
  return last_error;
}

Result<int> ConnectTcp(const HostPort& address) {
  if (address.port == 0) {
    return Status::InvalidArgument("cannot connect to port 0");
  }
  auto resolved = ResolveTcp(address, /*passive=*/false);
  if (!resolved.ok()) return resolved.status();
  Status last_error = Status::NotFound("no address candidates for " +
                                       address.host);
  for (addrinfo* candidate = resolved.value(); candidate != nullptr;
       candidate = candidate->ai_next) {
    const int fd = ::socket(candidate->ai_family, candidate->ai_socktype,
                            candidate->ai_protocol);
    if (fd < 0) {
      last_error = Status::Internal(std::string("socket: ") +
                                    std::strerror(errno));
      continue;
    }
    if (::connect(fd, candidate->ai_addr, candidate->ai_addrlen) != 0) {
      last_error = Status::NotFound("connect " + address.host + ":" +
                                    std::to_string(address.port) + ": " +
                                    std::strerror(errno));
      ::close(fd);
      continue;
    }
    SetTcpNoDelay(fd);
    ::freeaddrinfo(resolved.value());
    return fd;
  }
  ::freeaddrinfo(resolved.value());
  return last_error;
}

void SetTcpNoDelay(int fd) {
  const int enable = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

}  // namespace opthash::server
