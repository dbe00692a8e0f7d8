#include "net/impair.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <queue>

#include "common/check.h"
#include "net/rendezvous.h"

namespace pdw::net {

namespace {

// splitmix64: the decision for datagram n toward front i is a pure function
// of (seed, i, n, salt) — reproducible regardless of arrival timing.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(uint64_t seed, uint64_t front, uint64_t ordinal,
                 uint64_t salt) {
  const uint64_t h = mix64(seed ^ mix64(front * 0x100000001b3ull) ^
                           mix64(ordinal) ^ mix64(salt * 0x9e3779b9ull));
  return double(h >> 11) * 0x1.0p-53;
}

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kMaxDgram = 64 * 1024;

}  // namespace

ImpairProxy::ImpairProxy(std::vector<Endpoint> real, ImpairConfig cfg)
    : real_(std::move(real)), cfg_(cfg), ordinal_(real_.size(), 0) {
  for (size_t i = 0; i < real_.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    PDW_CHECK_GE(fd, 0);
    int buf = 4 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
    sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackIp, 0});
    PDW_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    socklen_t len = sizeof(sa);
    PDW_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len),
                 0);
    fds_.push_back(fd);
    fronts_.push_back(
        Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)});
  }
  thread_ = std::thread([this] { run(); });
}

ImpairProxy::~ImpairProxy() {
  stop();
  for (int fd : fds_) ::close(fd);
}

void ImpairProxy::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

ImpairProxy::Stats ImpairProxy::stats() const {
  return Stats{forwarded_.load(), dropped_.load(), duplicated_.load(),
               delayed_.load()};
}

void ImpairProxy::run() {
  struct Held {
    double release;
    size_t front;
    std::vector<uint8_t> data;

    bool operator>(const Held& o) const { return release > o.release; }
  };
  std::priority_queue<Held, std::vector<Held>, std::greater<Held>> held;

  std::vector<pollfd> pfds(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i)
    pfds[i] = pollfd{fds_[i], POLLIN, 0};
  std::vector<uint8_t> buf(kMaxDgram);

  while (!stop_.load(std::memory_order_acquire)) {
    double wait = 0.01;
    const double t = now_s();
    while (!held.empty() && held.top().release <= t) {
      const Held& h = held.top();
      sockaddr_in to = to_sockaddr(real_[h.front]);
      ::sendto(fds_[h.front], h.data.data(), h.data.size(), 0,
               reinterpret_cast<sockaddr*>(&to), sizeof(to));
      forwarded_.fetch_add(1, std::memory_order_relaxed);
      held.pop();
    }
    if (!held.empty())
      wait = std::clamp(held.top().release - now_s(), 0.0, wait);

    ::poll(pfds.data(), nfds_t(pfds.size()), int(wait * 1000) + 1);

    for (size_t i = 0; i < fds_.size(); ++i) {
      while (true) {
        const ssize_t n =
            ::recvfrom(fds_[i], buf.data(), buf.size(), 0, nullptr, nullptr);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        const uint64_t ord = ordinal_[i]++;
        if (uniform01(cfg_.seed, i, ord, 1) < cfg_.loss) {
          dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (uniform01(cfg_.seed, i, ord, 3) < cfg_.delay) {
          delayed_.fetch_add(1, std::memory_order_relaxed);
          held.push(Held{now_s() + cfg_.delay_s, i,
                         std::vector<uint8_t>(buf.begin(), buf.begin() + n)});
          continue;
        }
        sockaddr_in to = to_sockaddr(real_[i]);
        const int copies =
            uniform01(cfg_.seed, i, ord, 2) < cfg_.dup ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          ::sendto(fds_[i], buf.data(), size_t(n), 0,
                   reinterpret_cast<sockaddr*>(&to), sizeof(to));
          forwarded_.fetch_add(1, std::memory_order_relaxed);
        }
        if (copies == 2) duplicated_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void impair_rendezvous(RendezvousServer* server, const ImpairConfig& cfg,
                       std::unique_ptr<ImpairProxy>* proxy) {
  if (cfg.loss <= 0 && cfg.dup <= 0 && cfg.delay <= 0) return;
  server->set_map_transform([cfg, proxy](const std::vector<Endpoint>& real) {
    *proxy = std::make_unique<ImpairProxy>(real, cfg);
    return (*proxy)->proxied();
  });
}

}  // namespace pdw::net
