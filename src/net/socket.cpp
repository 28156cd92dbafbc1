#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace vlsip::net {

namespace {

Status errno_status(const std::string& what) {
  return Status(StatusCode::kIoError, what + ": " + std::strerror(errno));
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;        // unix
  std::string host;        // tcp
  std::uint16_t port = 0;  // tcp
};

StatusOr<ParsedAddress> parse_address(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.is_unix = true;
    parsed.path = address.substr(5);
    if (parsed.path.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    "unix address needs a path: " + address);
    }
    if (parsed.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return Status(StatusCode::kInvalidArgument,
                    "unix socket path too long: " + parsed.path);
    }
    return parsed;
  }
  const auto colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "address must be host:port or unix:/path, got: " + address);
  }
  parsed.host = address.substr(0, colon);
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return Status(StatusCode::kInvalidArgument,
                  "bad port in address: " + address);
  }
  parsed.port = static_cast<std::uint16_t>(port);
  return parsed;
}

StatusOr<sockaddr_in> tcp_sockaddr(const ParsedAddress& parsed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(parsed.port);
  if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "not an IPv4 address: " + parsed.host +
                      " (the farm daemons take numeric addresses)");
  }
  return addr;
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

}  // namespace

StatusOr<Socket> Socket::connect(const std::string& address) {
  const auto parsed = parse_address(address);
  if (!parsed.ok()) return parsed.status();
  if (parsed->is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_status("socket");
    const sockaddr_un addr = unix_sockaddr(parsed->path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const Status failed = errno_status("connect " + address);
      ::close(fd);
      return failed;
    }
    return Socket(fd);
  }
  const auto addr = tcp_sockaddr(*parsed);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&*addr),
                sizeof *addr) != 0) {
    const Status failed = errno_status("connect " + address);
    ::close(fd);
    return failed;
  }
  // Frames are small and latency-sensitive (heartbeats, job results);
  // coalescing them behind Nagle only adds round trips.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

Status Socket::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    if (sent == 0) {
      return Status(StatusCode::kIoError, "send: connection closed");
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return Status::Ok();
}

Status Socket::recv_exact(void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t got = ::recv(fd_, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno_status("recv");
    }
    if (got == 0) {
      return Status(StatusCode::kIoError, "recv: connection closed");
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return Status::Ok();
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      port_(other.port_),
      address_(std::move(other.address_)),
      unlink_path_(std::move(other.unlink_path_)) {
  other.fd_ = -1;
  other.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    address_ = std::move(other.address_);
    unlink_path_ = std::move(other.unlink_path_);
    other.fd_ = -1;
    other.unlink_path_.clear();
  }
  return *this;
}

StatusOr<Listener> Listener::listen(const std::string& address) {
  const auto parsed = parse_address(address);
  if (!parsed.ok()) return parsed.status();
  Listener listener;
  if (parsed->is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return errno_status("socket");
    // A stale socket file from a crashed daemon would make bind fail
    // forever; remove it first (connect()ability is re-established by
    // this bind).
    ::unlink(parsed->path.c_str());
    const sockaddr_un addr = unix_sockaddr(parsed->path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, 64) != 0) {
      const Status failed = errno_status("listen " + address);
      ::close(fd);
      return failed;
    }
    listener.fd_ = fd;
    listener.address_ = address;
    listener.unlink_path_ = parsed->path;
    return listener;
  }
  const auto addr = tcp_sockaddr(*parsed);
  if (!addr.ok()) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const Status failed = errno_status("listen " + address);
    ::close(fd);
    return failed;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status failed = errno_status("getsockname");
    ::close(fd);
    return failed;
  }
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  listener.address_ = parsed->host + ":" + std::to_string(listener.port_);
  return listener;
}

StatusOr<Socket> Listener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return errno_status("accept");
  }
}

void Listener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (fd_ >= 0) {
    // shutdown() first so a blocked accept() returns instead of
    // sleeping on a closed fd number that may be reused.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

}  // namespace vlsip::net
