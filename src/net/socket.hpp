// Minimal POSIX socket layer for the distributed farm.
//
// One abstraction, two transports: TCP (loopback or LAN) and Unix
// domain sockets, selected by the address string — "host:port" is TCP
// ("127.0.0.1:0" binds an ephemeral port; Listener::address() reports
// the actual one), "unix:/path" is a Unix socket. All failures surface
// as Status (kIoError / kInvalidArgument); a peer closing the
// connection reads as kIoError with "connection closed" in the
// message, which the daemons treat as worker/client death.
//
// Blocking I/O only: each daemon connection owns a receive thread, and
// liveness is handled above this layer (heartbeats + a health loop
// that calls Socket::shutdown_both() to unblock a stuck reader).
// Writes use MSG_NOSIGNAL so a dead peer yields a Status, not SIGPIPE.
#pragma once

#include <cstdint>
#include <string>

#include "core/status.hpp"

namespace vlsip::net {

/// Owning, movable socket fd. recv/send loop until the full count is
/// transferred — the framing layer reads exact header/payload sizes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  /// Connects per the address grammar in the file header.
  static StatusOr<Socket> connect(const std::string& address);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `n` bytes (kIoError on a dead peer).
  Status send_all(const void* data, std::size_t n);

  /// Reads exactly `n` bytes. A clean EOF before the first byte (or a
  /// mid-read one) is kIoError "connection closed".
  Status recv_exact(void* data, std::size_t n);

  /// Unblocks any thread stuck in recv/send on this socket (the health
  /// loop's lever for declaring a peer dead). Safe to call twice.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// Listening endpoint. TCP listeners report their bound port so tests
/// and CI can listen on "127.0.0.1:0" and discover the real address.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;

  /// Binds + listens per the address grammar in the file header.
  static StatusOr<Listener> listen(const std::string& address);

  bool valid() const { return fd_ >= 0; }

  /// The connectable address ("127.0.0.1:41731" / "unix:/path"); for
  /// TCP this carries the kernel-assigned port when 0 was requested.
  const std::string& address() const { return address_; }
  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection; kIoError once close()d.
  StatusOr<Socket> accept();

  /// Fails a pending and every later accept() but keeps the descriptor,
  /// so the accepting thread can be joined before close().
  void shutdown();

  /// Stops listening and unblocks accept(). Unix listeners unlink
  /// their path. Safe to call twice.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string address_;
  std::string unlink_path_;
};

}  // namespace vlsip::net
