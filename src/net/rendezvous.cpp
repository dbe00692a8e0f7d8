#include "net/rendezvous.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/check.h"
#include "common/timing.h"

namespace pdw::net {

namespace {

constexpr uint32_t kRvMagic = 0x50445752u;  // 'PDWR'
// JOIN retry delay: doubles from the first value up to the cap.
constexpr double kBackoffInitialS = 0.02;
constexpr double kBackoffMaxS = 0.5;

using Kind = RendezvousMsg::Kind;

std::vector<uint8_t> encode(Kind kind, int node = 0, Endpoint endpoint = {},
                            std::vector<Endpoint> map = {}) {
  return encode_rendezvous(RendezvousMsg{kind, node, endpoint, std::move(map)});
}

// End one side of the rendezvous: publish its failed sends (counted by its
// socket) into rendezvous_send_failures and, on timeout, report them.
RendezvousStatus finish(const UdpSocket& sock, const RendezvousConfig& cfg,
                        int node, bool ok, const char* who) {
  const uint64_t failed = sock.send_failures();
  obs::registry_or_global(cfg.metrics)
      .counter(obs::family::kRendezvousSendFailures, obs::Labels{node, -1})
      .add(failed);
  if (ok) return RendezvousStatus::kOk;
  if (failed > 0)
    std::fprintf(stderr,
                 "rendezvous %s: timed out after %llu failed sends (last: "
                 "%s)\n",
                 who, static_cast<unsigned long long>(failed),
                 std::strerror(sock.last_send_error()));
  return RendezvousStatus::kTimeout;
}

}  // namespace

std::vector<uint8_t> encode_rendezvous(const RendezvousMsg& msg) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  w.u32(kRvMagic);
  w.u32(uint32_t(msg.kind));
  if (msg.kind == Kind::kJoin || msg.kind == Kind::kMapAck)
    w.u32(uint32_t(msg.node));
  const auto endpoint = [&w](Endpoint ep) {
    w.u32(ep.ip);
    w.u32(ep.port);
  };
  if (msg.kind == Kind::kJoin) endpoint(msg.endpoint);
  if (msg.kind == Kind::kMap) {
    w.u32(uint32_t(msg.map.size()));
    for (const Endpoint& ep : msg.map) endpoint(ep);
  }
  return out;
}

std::optional<RendezvousMsg> decode_rendezvous(std::span<const uint8_t> d,
                                               int nodes) {
  const uint32_t wall = uint32_t(std::max(nodes, 0));
  if (d.size() < 8) return std::nullopt;
  ByteReader r(d);
  const uint32_t magic = r.u32();
  RendezvousMsg m;
  m.kind = Kind(r.u32());
  size_t len = 0;  // each kind has one exact length
  switch (m.kind) {
    case Kind::kJoin: len = 20; break;
    case Kind::kWait: len = 8; break;
    case Kind::kMap: len = 12 + size_t(wall) * 8; break;
    case Kind::kMapAck: len = 12; break;
  }
  if (magic != kRvMagic || len == 0 || d.size() != len) return std::nullopt;
  if (m.kind == Kind::kJoin || m.kind == Kind::kMapAck) {
    const uint32_t node = r.u32();
    if (node >= wall) return std::nullopt;
    m.node = int(node);
  }
  const auto endpoint = [&r](Endpoint* ep) {
    ep->ip = r.u32();
    const uint32_t port = r.u32();
    ep->port = uint16_t(port);
    return port <= 0xFFFF;
  };
  if (m.kind == Kind::kJoin && !endpoint(&m.endpoint)) return std::nullopt;
  if (m.kind == Kind::kMap) {
    if (r.u32() != wall) return std::nullopt;
    m.map.resize(wall);
    for (Endpoint& ep : m.map)
      if (!endpoint(&ep)) return std::nullopt;
  }
  return m;
}

RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg) {
  UdpSocket sock;
  PDW_CHECK(sock.ok()) << std::strerror(sock.error());
  const WallTimer clock;
  double backoff = kBackoffInitialS;
  bool have_map = false;
  // One spare byte: an overlong datagram reads as one and fails the parse.
  std::vector<uint8_t> buf(12 + 8 * size_t(std::max(nodes, 0)) + 1);
  const std::vector<uint8_t> join = encode(Kind::kJoin, self, local);

  while (clock.seconds() < cfg.timeout_s) {
    if (!have_map) sock.send(server, join);
    // After the map arrived, linger briefly re-acking resends (our first
    // MAP_ACK may have been lost); a quiet window means the listener heard.
    const double wait =
        have_map ? 0.12 : std::min(backoff, cfg.timeout_s - clock.seconds());
    backoff = std::min(backoff * 2, kBackoffMaxS);

    const std::optional<size_t> n =
        sock.wait(wait) ? sock.recv(buf) : std::nullopt;
    if (!n) {
      if (have_map) break;  // quiet after MAP: done
      continue;
    }
    std::optional<RendezvousMsg> msg =
        decode_rendezvous({buf.data(), *n}, nodes);
    if (!msg || msg->kind != Kind::kMap) continue;  // WAIT, or noise
    *out = std::move(msg->map);
    sock.send(server, encode(Kind::kMapAck, self));
    have_map = true;
  }
  return finish(sock, cfg, self, have_map, "join");
}

RendezvousServer::RendezvousServer(int nodes, uint16_t port)
    : sock_(port),
      nodes_(nodes),
      map_(size_t(nodes)),
      join_source_(size_t(nodes)),
      joined_(size_t(nodes), false),
      acked_(size_t(nodes), false) {
  PDW_CHECK(sock_.ok()) << "rendezvous port " << port << ": "
                        << std::strerror(sock_.error());
}

RendezvousServer::~RendezvousServer() {
  if (thread_.joinable()) thread_.join();
}

RendezvousStatus RendezvousServer::serve(RendezvousConfig cfg) {
  const WallTimer clock;
  double next_push = 0;  // MAP resend pacing once everyone joined
  const auto all = [](const std::vector<bool>& v) {
    return std::all_of(v.begin(), v.end(), [](bool b) { return b; });
  };

  while (clock.seconds() < cfg.timeout_s) {
    const bool all_joined = all(joined_);
    if (all_joined && all(acked_)) return finish(sock_, cfg, -1, true, "");

    uint8_t buf[64];
    Endpoint from;
    const std::optional<size_t> n =
        sock_.wait(0.05) ? sock_.recv(buf, &from) : std::nullopt;
    const double t = clock.seconds();
    const std::optional<RendezvousMsg> msg =
        n ? decode_rendezvous({buf, *n}, nodes_) : std::nullopt;

    if (msg && msg->kind == Kind::kJoin) {
      map_[size_t(msg->node)] = msg->endpoint;
      join_source_[size_t(msg->node)] = from;
      joined_[size_t(msg->node)] = true;
      // Not complete yet (this JOIN may have completed it; the next loop
      // iteration pushes the map). Tell the joiner to hold on.
      if (!all_joined) sock_.send(from, encode(Kind::kWait));
    } else if (msg && msg->kind == Kind::kMapAck) {
      acked_[size_t(msg->node)] = true;
    }

    if (all(joined_) && t >= next_push) {
      // Push MAP to every unacked joiner (initial send and loss recovery).
      // It goes to the joiner's rendezvous socket (the JOIN source), not its
      // fabric endpoint — they are different sockets.
      const std::vector<uint8_t> map = encode(Kind::kMap, 0, {}, map_);
      for (int i = 0; i < nodes_; ++i)
        if (!acked_[size_t(i)]) sock_.send(join_source_[size_t(i)], map);
      next_push = t + 0.05;
    }
  }
  return finish(sock_, cfg, -1, false, "listener");
}

void RendezvousServer::serve_async(RendezvousConfig cfg) {
  thread_ = std::thread([this, cfg] { async_result_ = serve(cfg); });
}

RendezvousStatus RendezvousServer::result() {
  if (thread_.joinable()) thread_.join();
  return async_result_;
}

}  // namespace pdw::net
