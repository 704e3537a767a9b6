#ifndef PDM_SERVER_NET_H_
#define PDM_SERVER_NET_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"

/// \file
/// Thin POSIX socket helpers shared by TcpServer and Client: an owning fd
/// wrapper plus listen/connect/option plumbing, so the event loop and the
/// client read as protocol logic rather than sockaddr bookkeeping. IPv4
/// only — the serving layer targets loopback and LAN deployments
/// (DESIGN.md §10); nothing here is Windows-portable by design.

namespace pdm::server {

/// How long a waiting end of the wire re-checks its socket without
/// blocking before it falls through to a blocking call (DESIGN.md §10). A
/// blocked thread on a virtual machine runs again about 8 µs after its data
/// arrives; a reply inside the window skips that cost. The event loop
/// spins only within this long of serving its last frame, and the client
/// for at most this long per response wait.
inline constexpr std::chrono::microseconds kSpinWindow{50};

/// Owning file descriptor (closes on destruction, move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int Release() { return std::exchange(fd_, -1); }
  void Reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on `host:port` (port 0 picks an ephemeral port; the
/// bound port is written to `*bound_port`). SO_REUSEADDR is set so restarts
/// do not trip over TIME_WAIT.
Status ListenTcp(const std::string& host, uint16_t port, UniqueFd* out,
                 uint16_t* bound_port);

/// Blocking connect to `host:port` with TCP_NODELAY set (the protocol is
/// request/response; Nagle would serialize pipelined round trips).
Status ConnectTcp(const std::string& host, uint16_t port, UniqueFd* out);

/// O_NONBLOCK toggle for event-loop fds.
Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm on an accepted/connected socket.
void SetNoDelay(int fd);

}  // namespace pdm::server

#endif  // PDM_SERVER_NET_H_
