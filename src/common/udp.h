// The one UDP socket of the wall: SocketFabric, the rendezvous, the
// telemetry exporter and the collector all speak through it, as the paper's
// nodes all speak through GM. It lives in pdw_common, below obs and net.
//
// Its rules hold for every user:
//  * it binds 127.0.0.1, never INADDR_ANY, so no parser of these datagrams
//    is reachable from the network;
//  * it never sets SO_REUSEADDR: UDP has no TIME_WAIT to wait out, and
//    without the option a port in use fails the bind instead of silently
//    splitting its datagrams between two sockets;
//  * it is nonblocking; wait() is the one way to block;
//  * every syscall result is checked or counted: a failed socket or bind
//    leaves !ok(), options that cannot fail on a good socket are
//    PDW_CHECKs, and a failed send is counted and returns false.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

namespace pdw::net {

// A UDP endpoint in host byte order (ip = 0x7f000001 for loopback).
struct Endpoint {
  uint32_t ip = 0;
  uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

inline constexpr uint32_t kLoopbackIp = 0x7f000001u;

class UdpSocket {
 public:
  // Binds 127.0.0.1:port (0: ephemeral). On failure ok() is false, error()
  // holds the errno, and every send fails.
  explicit UdpSocket(uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  bool ok() const { return fd_ >= 0; }
  int error() const { return error_; }
  Endpoint local() const { return local_; }

  // SO_SNDBUF and SO_RCVBUF (the kernel caps them at its maximum).
  void set_buffer_bytes(int bytes);
  // Queue the ICMP errors that sends provoke (IP_RECVERR) for take_error().
  void enable_send_errors();

  // Header then payload as one datagram, by one sendmsg().
  bool send(Endpoint to, std::span<const uint8_t> header,
            std::span<const uint8_t> payload = {});
  // The next queued datagram, truncated to `buf`: its length, or nullopt
  // when none is queued.
  std::optional<size_t> recv(std::span<uint8_t> buf, Endpoint* from = nullptr);
  // Block until a datagram is queued or timeout_s passes, rounded up to a
  // whole millisecond so a wait never spins. True if one is queued.
  bool wait(double timeout_s) const;
  // Pop the next queued send error: its errno and the destination of the
  // send that provoked it. False when none is queued.
  bool take_error(int* err, Endpoint* dst);

  uint64_t send_failures() const { return send_failures_.load(); }
  int last_send_error() const { return last_send_error_.load(); }

 private:
  int fd_ = -1;
  int error_ = 0;
  bool send_errors_ = false;
  Endpoint local_;
  std::atomic<uint64_t> send_failures_{0};
  std::atomic<int> last_send_error_{0};
};

}  // namespace pdw::net
