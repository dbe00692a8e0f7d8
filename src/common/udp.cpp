#include "common/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <linux/errqueue.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace pdw::net {

namespace {

sockaddr_in addr_of(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

Endpoint endpoint_of(const sockaddr_in& sa) {
  return Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

void set_option(int fd, int level, int name, int value) {
  PDW_CHECK(::setsockopt(fd, level, name, &value, sizeof(value)) == 0)
      << std::strerror(errno);
}

}  // namespace

UdpSocket::UdpSocket(uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error_ = errno;
    return;
  }
  sockaddr_in sa = addr_of(Endpoint{kLoopbackIp, port});
  socklen_t len = sizeof(sa);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    error_ = errno;
    ::close(fd);
    return;
  }
  fd_ = fd;
  local_ = endpoint_of(sa);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpSocket::set_buffer_bytes(int bytes) {
  if (fd_ < 0) return;
  set_option(fd_, SOL_SOCKET, SO_RCVBUF, bytes);
  set_option(fd_, SOL_SOCKET, SO_SNDBUF, bytes);
}

void UdpSocket::enable_send_errors() {
  if (fd_ < 0) return;
  set_option(fd_, IPPROTO_IP, IP_RECVERR, 1);
  send_errors_ = true;
}

bool UdpSocket::send(Endpoint to, std::span<const uint8_t> header,
                     std::span<const uint8_t> payload) {
  sockaddr_in sa = addr_of(to);
  iovec iov[2] = {{const_cast<uint8_t*>(header.data()), header.size()},
                  {const_cast<uint8_t*>(payload.data()), payload.size()}};
  msghdr mh{};
  mh.msg_name = &sa;
  mh.msg_namelen = sizeof(sa);
  mh.msg_iov = iov;
  mh.msg_iovlen = payload.empty() ? 1 : 2;
  // A nonblocking call never sees EINTR.
  if (fd_ >= 0 && ::sendmsg(fd_, &mh, 0) >= 0) return true;
  last_send_error_ = fd_ >= 0 ? errno : EBADF;
  ++send_failures_;
  return false;
}

std::optional<size_t> UdpSocket::recv(std::span<uint8_t> buf, Endpoint* from) {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&sa), &len);
    if (n >= 0) {
      if (from) *from = endpoint_of(sa);
      return size_t(n);
    }
    if (errno == EAGAIN) return std::nullopt;
    // With send errors queued, any other errno is the pending report of an
    // earlier send, whose details wait for take_error(): receive again.
    PDW_CHECK(send_errors_) << std::strerror(errno);
  }
}

bool UdpSocket::wait(double timeout_s) const {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  const int ms = int(std::clamp(std::ceil(timeout_s * 1000), 0.0, 1e6));
  const int ready = ::poll(&pfd, 1, ms);
  PDW_CHECK(ready >= 0 || errno == EINTR) << std::strerror(errno);
  return ready > 0;
}

bool UdpSocket::take_error(int* err, Endpoint* dst) {
  if (fd_ < 0) return false;
  for (;;) {
    uint8_t byte = 0;
    sockaddr_in sa{};
    alignas(cmsghdr) uint8_t control[256];
    iovec iov{&byte, sizeof(byte)};
    msghdr mh{};
    mh.msg_name = &sa;
    mh.msg_namelen = sizeof(sa);
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = control;
    mh.msg_controllen = sizeof(control);
    if (::recvmsg(fd_, &mh, MSG_ERRQUEUE) < 0) {
      PDW_CHECK(errno == EAGAIN) << std::strerror(errno);
      return false;
    }
    for (cmsghdr* c = CMSG_FIRSTHDR(&mh); c; c = CMSG_NXTHDR(&mh, c)) {
      if (c->cmsg_level != IPPROTO_IP || c->cmsg_type != IP_RECVERR) continue;
      sock_extended_err ee;
      std::memcpy(&ee, CMSG_DATA(c), sizeof(ee));
      *err = int(ee.ee_errno);
      // msg_name carries the original destination of the failed send.
      *dst = endpoint_of(sa);
      return true;
    }
  }
}

}  // namespace pdw::net
