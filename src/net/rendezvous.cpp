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
// Once a joiner holds the map it re-sends MAP_ACK this often until DONE.
constexpr double kAckResendS = 0.01;
// Fallback for a lost DONE: a joiner holding the map leaves once this long
// passes without a MAP (the listener heard every ack and returned).
constexpr double kQuietWindowS = 0.12;

using Kind = RendezvousMsg::Kind;

template <class IO, Layout<Endpoint> E>
void fields(IO& io, E& ep) {
  io.u32(ep.ip);
  io.u32(ep.port, 0xFFFF);
}

// One datagram's fields (common/bytes.h), in wire order. `wall` is the
// decoder's wall size: node ids must be below it and a map must hold
// exactly that many endpoints.
template <class IO, Layout<RendezvousMsg> M>
void fields(IO& io, M& m, uint32_t wall) {
  uint32_t magic = kRvMagic;
  io.u32(magic);
  io.u32(m.kind);
  io.check(magic == kRvMagic &&
           (m.kind == Kind::kJoin || m.kind == Kind::kMap ||
            m.kind == Kind::kMapAck || m.kind == Kind::kDone));
  if (m.kind == Kind::kJoin || m.kind == Kind::kMapAck) {
    io.u32(m.node);
    io.check(uint32_t(m.node) < wall);
  }
  if (m.kind == Kind::kJoin) fields(io, m.endpoint);
  if (m.kind == Kind::kMap) {
    io.count32(m.map, 8);
    io.check(m.map.size() == wall);
    for (auto& ep : m.map) fields(io, ep);
  }
}

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
  fields(w, msg, 0);
  return out;
}

std::optional<RendezvousMsg> decode_rendezvous(std::span<const uint8_t> d,
                                               int nodes) {
  ByteReader r(d);
  RendezvousMsg m;
  fields(r, m, uint32_t(std::max(nodes, 0)));
  if (!r.done()) return std::nullopt;
  return m;
}

RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg) {
  UdpSocket sock;
  PDW_CHECK(sock.ok()) << std::strerror(sock.error());
  const WallTimer clock;
  double backoff = kBackoffInitialS;
  double next_send = 0;    // next JOIN (backoff slot) or MAP_ACK resend
  double quiet_until = 0;  // with the map: fallback exit without DONE
  bool have_map = false, done = false;
  // One spare byte: an overlong datagram reads as one and fails the parse.
  std::vector<uint8_t> buf(12 + 8 * size_t(std::max(nodes, 0)) + 1);
  const std::vector<uint8_t> join = encode(Kind::kJoin, self, local);
  const std::vector<uint8_t> ack = encode(Kind::kMapAck, self);

  while (!done && clock.seconds() < cfg.timeout_s) {
    const double now = clock.seconds();
    if (have_map && now >= quiet_until) break;  // DONE lost, listener gone
    // JOIN only when its backoff slot is up: the listener stays silent
    // until the last node joins, so an early joiner sleeps meanwhile.
    if (now >= next_send) {
      sock.send(server, have_map ? ack : join);
      next_send = now + (have_map ? kAckResendS : backoff);
      if (!have_map) backoff = std::min(backoff * 2, kBackoffMaxS);
    }
    const double until =
        std::min(next_send, have_map ? quiet_until : cfg.timeout_s);

    const std::optional<size_t> n =
        sock.wait(until - now) ? sock.recv(buf) : std::nullopt;
    std::optional<RendezvousMsg> msg =
        n ? decode_rendezvous({buf.data(), *n}, nodes) : std::nullopt;
    if (msg && msg->kind == Kind::kDone) {
      done = have_map;
    } else if (msg && msg->kind == Kind::kMap) {
      // The first MAP or a resend: the loop head acks it at once.
      *out = std::move(msg->map);
      have_map = true;
      next_send = 0;
      quiet_until = clock.seconds() + kQuietWindowS;
    }  // noise: keep to the timers
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
    if (all(joined_) && all(acked_)) return finish(sock_, cfg, -1, true, "");

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
      joined_[size_t(msg->node)] = true;  // the last JOIN starts the MAP push
    } else if (msg && msg->kind == Kind::kMapAck) {
      // Confirm every ack, duplicates included: the joiner leaves on DONE.
      acked_[size_t(msg->node)] = true;
      sock_.send(from, encode(Kind::kDone));
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
