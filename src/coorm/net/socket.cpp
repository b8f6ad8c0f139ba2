#include "coorm/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace coorm::net {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Endpoint> parseEndpoint(const std::string& text) {
  Endpoint endpoint;
  std::string portText;
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    portText = text;  // bare port
  } else {
    if (colon > 0) endpoint.host = text.substr(0, colon);
    portText = text.substr(colon + 1);
  }
  if (portText.empty() || endpoint.host.empty()) return std::nullopt;
  long port = 0;
  for (const char c : portText) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + (c - '0');
    if (port > 65535) return std::nullopt;
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

std::string toString(const Endpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

bool setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

namespace {

bool fillAddress(const Endpoint& endpoint, sockaddr_in& addr,
                 std::string& error) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    error = "bad IPv4 address: " + endpoint.host;
    return false;
  }
  return true;
}

}  // namespace

Fd listenOn(const Endpoint& endpoint, std::string& error) {
  sockaddr_in addr{};
  if (!fillAddress(endpoint, addr, error)) return Fd{};

  // SOCK_CLOEXEC everywhere: the chaos suite fork+execs daemons, and a
  // leaked listener or session fd in the child would hold ports (and
  // half-open peers) hostage across restarts.
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    error = std::strerror(errno);
    return Fd{};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // On Linux accepted sockets inherit listener TCP options; setting
  // TCP_NODELAY here keeps every serving path un-Nagled even if an accept
  // path forgets it.
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(fd.get(), 1024) != 0 || !setNonBlocking(fd.get())) {
    error = std::strerror(errno);
    return Fd{};
  }
  return fd;
}

std::uint16_t boundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

Fd connectTo(const Endpoint& endpoint, std::string& error) {
  sockaddr_in addr{};
  if (!fillAddress(endpoint, addr, error)) return Fd{};

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    error = std::strerror(errno);
    return Fd{};
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    error = std::strerror(errno);
    return Fd{};
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (!setNonBlocking(fd.get())) {
    error = std::strerror(errno);
    return Fd{};
  }
  return fd;
}

DrainStatus drainReadable(int fd, FrameBuffer& frames) {
  std::uint8_t buffer[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      // Read on past a short read: under the edge-triggered loop a FIN
      // that arrived with the last bytes raises no further edge, so only a
      // recv returning 0 or EAGAIN proves the socket drained.
      frames.append(
          std::span<const std::uint8_t>(buffer, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) return DrainStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return DrainStatus::kOk;
    if (errno == EINTR) continue;
    return DrainStatus::kError;
  }
}

Fd acceptOn(int listenFd) {
  // accept4 sets CLOEXEC + NONBLOCK atomically — no window where a
  // concurrent fork could inherit the session fd.
  Fd fd(::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK));
  if (!fd.valid()) return Fd{};
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::size_t raiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);  // best-effort; re-read below
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

}  // namespace coorm::net
