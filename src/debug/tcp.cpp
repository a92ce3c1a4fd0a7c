#include "debug/tcp.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace s4e::debug {

namespace {

// Wait until `fd` is readable. Returns 1 when readable (or the peer hung
// up — the following read observes that), 0 on deadline, -1 on poll error.
int wait_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n >= 0) return n > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
    // EINTR: retry with the full timeout again — accept deadlines are
    // coarse liveness bounds, not precise timers.
  }
}

}  // namespace

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

std::string TcpChannel::read_blocking() {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
    if (n == 0) return {};  // orderly shutdown
    if (errno == EINTR) continue;
    return {};  // connection error → treat as closed
  }
}

std::string TcpChannel::read_poll() {
  char buffer[4096];
  const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
  if (n > 0) return std::string(buffer, static_cast<std::size_t>(n));
  return {};
}

bool TcpChannel::write_all(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpListener> TcpListener::listen_loopback(u16 port,
                                                          std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  if (::listen(fd, 1) < 0) {
    error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

std::unique_ptr<TcpChannel> TcpListener::accept_one(std::string& error) {
  bool timed_out = false;
  return accept_one_for(-1, error, timed_out);
}

std::unique_ptr<TcpChannel> TcpListener::accept_one_for(int timeout_ms,
                                                        std::string& error,
                                                        bool& timed_out) {
  timed_out = false;
  const int ready = wait_readable(fd_, timeout_ms);
  if (ready == 0) {
    timed_out = true;
    return nullptr;
  }
  if (ready < 0) {
    error = std::string("poll: ") + std::strerror(errno);
    return nullptr;
  }
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      // The RSP is a chatty request/reply protocol; disable Nagle.
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return std::make_unique<TcpChannel>(client);
    }
    if (errno == EINTR) continue;
    error = std::string("accept: ") + std::strerror(errno);
    return nullptr;
  }
}

}  // namespace s4e::debug
