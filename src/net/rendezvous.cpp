#include "net/rendezvous.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "obs/metrics.h"

namespace pdw::net {

namespace {

// Datagram layout (little-endian):
//   JOIN:    magic, kind=1, node u32, ip u32, port u32
//   WAIT:    magic, kind=2
//   MAP:     magic, kind=3, count u32, count x (ip u32, port u32)
//   MAP_ACK: magic, kind=4, node u32
constexpr uint32_t kRvMagic = 0x50445752u;  // 'PDWR'
constexpr uint32_t kJoin = 1, kWait = 2, kMap = 3, kMapAck = 4;

void put_u32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint32_t get_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

int open_udp(uint16_t port, Endpoint* local) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  PDW_CHECK_GE(fd, 0);
  sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackIp, port});
  PDW_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  PDW_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  *local = Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
  return fd;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wait up to timeout_s for one datagram. Returns its length, or -1. The
// poll timeout rounds up to whole milliseconds, so the last fraction of a
// millisecond before a deadline waits instead of spinning.
ssize_t recv_one(int fd, uint8_t* buf, size_t cap, double timeout_s,
                 sockaddr_in* from) {
  pollfd pfd{fd, POLLIN, 0};
  const int ms = std::max(0, int(std::ceil(timeout_s * 1000)));
  if (::poll(&pfd, 1, ms) <= 0) return -1;
  socklen_t slen = sizeof(*from);
  return ::recvfrom(fd, buf, cap, 0, reinterpret_cast<sockaddr*>(from), &slen);
}

// Every sendto() of one side of the rendezvous goes through here: failures
// are counted into rendezvous_send_failures and reported on timeout.
class SendTally {
 public:
  SendTally(const RendezvousConfig& cfg, int node)
      : failures_(&obs::registry_or_global(cfg.metrics)
                       .counter(obs::family::kRendezvousSendFailures,
                                obs::Labels{node, -1})) {}

  void send(int fd, const void* buf, size_t len, const sockaddr_in& to) {
    if (::sendto(fd, buf, len, 0, reinterpret_cast<const sockaddr*>(&to),
                 sizeof(to)) >= 0)
      return;
    ++count_;
    last_errno_ = errno;
    failures_->add();
  }

  RendezvousStatus timed_out(const char* who) const {
    if (count_ > 0)
      std::fprintf(stderr,
                   "rendezvous %s: timed out after %d failed sendto (last: "
                   "%s)\n",
                   who, count_, std::strerror(last_errno_));
    return RendezvousStatus::kTimeout;
  }

 private:
  obs::Counter* failures_;
  int count_ = 0;
  int last_errno_ = 0;
};

}  // namespace

RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg) {
  Endpoint bound;
  const int fd = open_udp(0, &bound);
  sockaddr_in srv = to_sockaddr(server);

  uint8_t join[20];
  put_u32(join + 0, kRvMagic);
  put_u32(join + 4, kJoin);
  put_u32(join + 8, uint32_t(self));
  put_u32(join + 12, local.ip);
  put_u32(join + 16, local.port);

  SendTally tally(cfg, self);
  const double deadline = now_s() + cfg.timeout_s;
  double backoff = cfg.backoff_initial_s;
  bool have_map = false;

  while (now_s() < deadline) {
    if (!have_map) tally.send(fd, join, sizeof(join), srv);
    // After the map arrived, linger briefly re-acking resends (our first
    // MAP_ACK may have been lost); a quiet window means the listener heard.
    const double wait = have_map
                            ? 0.12
                            : std::min(backoff, deadline - now_s());
    backoff = std::min(backoff * 2, cfg.backoff_max_s);

    uint8_t buf[16 + 8 * 512];
    sockaddr_in from{};
    const ssize_t n = recv_one(fd, buf, sizeof(buf), wait, &from);
    if (n < 0) {
      if (have_map) break;  // quiet after MAP: done
      continue;
    }
    if (n < 8 || get_u32(buf + 0) != kRvMagic) continue;
    const uint32_t kind = get_u32(buf + 4);
    if (kind == kWait) continue;
    if (kind != kMap || n < 12) continue;
    const uint32_t count = get_u32(buf + 8);
    if (int(count) != nodes || size_t(n) < 12 + size_t(count) * 8) continue;
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      (*out)[i].ip = get_u32(buf + 12 + i * 8);
      (*out)[i].port = uint16_t(get_u32(buf + 16 + i * 8));
    }
    uint8_t ack[12];
    put_u32(ack + 0, kRvMagic);
    put_u32(ack + 4, kMapAck);
    put_u32(ack + 8, uint32_t(self));
    tally.send(fd, ack, sizeof(ack), srv);
    have_map = true;
  }
  ::close(fd);
  return have_map ? RendezvousStatus::kOk : tally.timed_out("join");
}

RendezvousServer::RendezvousServer(int nodes, uint16_t port)
    : nodes_(nodes),
      map_(size_t(nodes)),
      join_source_(size_t(nodes)),
      joined_(size_t(nodes), false),
      acked_(size_t(nodes), false) {
  fd_ = open_udp(port, &local_);
}

RendezvousServer::~RendezvousServer() {
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

RendezvousStatus RendezvousServer::serve(RendezvousConfig cfg) {
  SendTally tally(cfg, -1);
  const double deadline = now_s() + cfg.timeout_s;
  double next_push = 0;  // MAP resend pacing once everyone joined

  while (now_s() < deadline) {
    const bool all_joined =
        std::all_of(joined_.begin(), joined_.end(), [](bool b) { return b; });
    if (all_joined &&
        std::all_of(acked_.begin(), acked_.end(), [](bool b) { return b; }))
      return RendezvousStatus::kOk;

    uint8_t buf[64];
    sockaddr_in from{};
    const ssize_t n = recv_one(fd_, buf, sizeof(buf), 0.05, &from);
    const double t = now_s();

    if (n >= 8 && get_u32(buf + 0) == kRvMagic) {
      const uint32_t kind = get_u32(buf + 4);
      if (kind == kJoin && n >= 20) {
        const uint32_t node = get_u32(buf + 8);
        if (node < uint32_t(nodes_)) {
          map_[node] = Endpoint{get_u32(buf + 12), uint16_t(get_u32(buf + 16))};
          join_source_[node] = Endpoint{ntohl(from.sin_addr.s_addr),
                                        ntohs(from.sin_port)};
          joined_[node] = true;
          if (!all_joined) {
            // Not complete yet (this JOIN may have completed it; the next
            // loop iteration pushes the map). Tell the joiner to hold on.
            uint8_t wait[8];
            put_u32(wait + 0, kRvMagic);
            put_u32(wait + 4, kWait);
            tally.send(fd_, wait, sizeof(wait), from);
          }
        }
      } else if (kind == kMapAck && n >= 12) {
        const uint32_t node = get_u32(buf + 8);
        if (node < uint32_t(nodes_)) acked_[node] = true;
      }
    }

    if (std::all_of(joined_.begin(), joined_.end(),
                    [](bool b) { return b; }) &&
        t >= next_push) {
      // Push MAP to every unacked joiner (initial send and loss recovery).
      uint8_t map[12 + 8 * 512];
      put_u32(map + 0, kRvMagic);
      put_u32(map + 4, kMap);
      put_u32(map + 8, uint32_t(nodes_));
      for (int i = 0; i < nodes_; ++i) {
        put_u32(map + 12 + size_t(i) * 8, map_[size_t(i)].ip);
        put_u32(map + 16 + size_t(i) * 8, map_[size_t(i)].port);
      }
      const size_t map_len = 12 + size_t(nodes_) * 8;
      for (int i = 0; i < nodes_; ++i) {
        if (acked_[size_t(i)]) continue;
        // MAP goes to the joiner's rendezvous socket (the JOIN source), not
        // its fabric endpoint — they are different sockets.
        sockaddr_in to = to_sockaddr(join_source_[size_t(i)]);
        tally.send(fd_, map, map_len, to);
      }
      next_push = t + 0.05;
    }
  }
  return tally.timed_out("listener");
}

void RendezvousServer::serve_async(RendezvousConfig cfg) {
  thread_ = std::thread([this, cfg] { async_result_ = serve(cfg); });
}

RendezvousStatus RendezvousServer::result() {
  if (thread_.joinable()) thread_.join();
  return async_result_;
}

}  // namespace pdw::net
