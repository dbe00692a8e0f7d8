// The real-socket transport: the one loopback UDP socket's rules (loopback
// bind, no port sharing, counted send failures), the rendezvous codec, UDP
// datagram framing, fragmentation and reassembly (bounded against forged
// datagrams), receiver-side flow control, counted send failures,
// rendezvous discovery, ICMP-driven peer-death detection, the adaptive RTO
// estimator, per-datagram fault injection, and the reliable layer
// surviving seeded datagram faults.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/reliable.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/metrics.h"

namespace pdw::net {
namespace {

// Wire two fabrics to each other (and themselves — self rows are unused).
void wire(std::vector<SocketFabric*> fabrics) {
  std::vector<Endpoint> map;
  for (SocketFabric* f : fabrics) map.push_back(f->local_endpoint());
  for (SocketFabric* f : fabrics) f->set_peers(map);
}

Message make_msg(int src, int type, uint32_t seq, size_t payload_bytes,
                 uint8_t fill = 0xab) {
  Message m;
  m.src = src;
  m.type = type;
  m.seq = seq;
  m.payload = mem::Bytes::alloc(payload_bytes);
  std::memset(m.payload.mutable_data(), fill, payload_bytes);
  return m;
}

// --- Hole-timeout derivation (documented worst case, pinned) ---------------

TEST(ReliableConfigDerivation, AdaptiveRtoDerivesFromWorstCaseRto) {
  ReliableConfig cfg;
  cfg.rto_initial_s = 0.004;
  cfg.rto_max_s = 0.064;
  cfg.max_retries = 12;
  // Adaptive RTO can sit at the ceiling the whole time, so the derivation
  // must assume every timeout is rto_max: 13 * 0.064 = 0.832. The receiver
  // waits 4x that plus scheduling slack before skipping a hole.
  EXPECT_NEAR(derive_hole_timeout(cfg), 4 * 0.832 + 0.1, 1e-9);
}

TEST(ReliableConfigDerivation, EndpointAppliesDerivations) {
  Fabric f(2);
  ReliableConfig cfg;
  ReliableEndpoint ep(&f, 0, cfg);
  EXPECT_DOUBLE_EQ(ep.rto_s(1), cfg.rto_initial_s);  // before any sample
  EXPECT_NEAR(ep.hole_timeout_s(), derive_hole_timeout(cfg), 1e-9);
  // An explicit hole timeout is honored as-is.
  cfg.hole_timeout_s = 7.5;
  ReliableEndpoint ep2(&f, 1, cfg);
  EXPECT_DOUBLE_EQ(ep2.hole_timeout_s(), 7.5);
}

// --- The one UDP socket ----------------------------------------------------

TEST(UdpSocket, BindsLoopbackAndRefusesAPortInUse) {
  UdpSocket a;
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.local().ip, kLoopbackIp);
  EXPECT_NE(a.local().port, 0);
  // No SO_REUSEADDR: a second socket cannot take over the port.
  UdpSocket b(a.local().port);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.error(), EADDRINUSE);
  EXPECT_FALSE(b.send(a.local(), std::vector<uint8_t>{1}));
  EXPECT_EQ(b.send_failures(), 1u);
}

TEST(UdpSocket, SendsHeaderAndPayloadAsOneDatagram) {
  UdpSocket a, b;
  const std::vector<uint8_t> header{1, 2, 3}, payload{4, 5};
  ASSERT_TRUE(a.send(b.local(), header, payload));
  ASSERT_TRUE(b.wait(1.0));
  uint8_t buf[16];
  Endpoint from;
  const std::optional<size_t> n = b.recv(buf, &from);
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(std::vector<uint8_t>(buf, buf + 5),
            (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(from, a.local());
  EXPECT_FALSE(b.recv(buf).has_value());  // drained
}

TEST(UdpSocket, FailedSendIsCountedWithItsErrno) {
  UdpSocket a;
  // Without SO_BROADCAST, a send to the limited broadcast address fails.
  EXPECT_FALSE(a.send(Endpoint{0xffffffffu, 9}, std::vector<uint8_t>{1}));
  EXPECT_EQ(a.send_failures(), 1u);
  EXPECT_EQ(a.last_send_error(), EACCES);
}

TEST(UdpSocket, EverySocketOfTheWallIsLoopback) {
  SocketFabric fabric(0, 1);
  EXPECT_EQ(fabric.local_endpoint().ip, kLoopbackIp);
  RendezvousServer listener(2);
  EXPECT_EQ(listener.endpoint().ip, kLoopbackIp);
}

// --- Rendezvous datagrams ----------------------------------------------------

TEST(RendezvousCodec, RoundTripsEveryKindAndRejectsMalformed) {
  using Kind = RendezvousMsg::Kind;
  const std::vector<RendezvousMsg> msgs = {
      {Kind::kJoin, 2, Endpoint{kLoopbackIp, 4242}, {}},
      {Kind::kWait, 0, {}, {}},
      {Kind::kMap, 0, {}, {{kLoopbackIp, 1}, {kLoopbackIp, 2}, {1, 3}}},
      {Kind::kMapAck, 1, {}, {}},
      {Kind::kDone, 0, {}, {}},
  };
  for (const RendezvousMsg& m : msgs) {
    const std::vector<uint8_t> d = encode_rendezvous(m);
    EXPECT_EQ(decode_rendezvous(d, 3), m);
    // Every truncation and an appended byte are refused.
    for (size_t n = 0; n < d.size(); ++n)
      EXPECT_FALSE(decode_rendezvous({d.data(), n}, 3).has_value()) << n;
    std::vector<uint8_t> longer = d;
    longer.push_back(0);
    EXPECT_FALSE(decode_rendezvous(longer, 3).has_value());
  }
  // A node id or map size that does not fit the wall, and a port that does
  // not fit 16 bits.
  EXPECT_FALSE(decode_rendezvous(encode_rendezvous(msgs[0]), 2).has_value());
  EXPECT_FALSE(decode_rendezvous(encode_rendezvous(msgs[2]), 4).has_value());
  std::vector<uint8_t> join = encode_rendezvous(msgs[0]);
  join[18] = 1;  // port 4242 + 65536
  EXPECT_FALSE(decode_rendezvous(join, 3).has_value());
}

// --- Datagram framing ------------------------------------------------------

TEST(SocketFabric, RoundTripPreservesEveryHeaderField) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, -7, 42, 100, 0x5c);
  m.aux = 7;
  m.stream = 3;
  m.tseq = 99;
  m.crc = 0xdeadbeef;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.type, -7);  // negative types (transport acks) survive
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.aux, 7);
  EXPECT_EQ(got.stream, 3);
  EXPECT_EQ(got.tseq, 99u);
  EXPECT_EQ(got.crc, 0xdeadbeefu);
  ASSERT_EQ(got.payload.size(), 100u);
  for (uint8_t byte : got.payload.span()) EXPECT_EQ(byte, 0x5c);
}

TEST(SocketFabric, LargePayloadIsFragmentedAndReassembled) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  const size_t big = 300 * 1024;  // several 56 KiB fragments
  Message m = make_msg(0, 1, 0, big);
  for (size_t i = 0; i < big; ++i)
    m.payload.mutable_data()[i] = uint8_t(i * 31 + (i >> 9));
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  ASSERT_EQ(got.payload.size(), big);
  for (size_t i = 0; i < big; ++i)
    ASSERT_EQ(got.payload.data()[i], uint8_t(i * 31 + (i >> 9))) << i;
  EXPECT_TRUE(b.quiescent());
}

TEST(SocketFabric, BulkWithoutCreditIsDroppedAndRecoverable) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, 1, 0, 64);
  m.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  EXPECT_EQ(b.receive_for(1, 0.2, &got), RecvStatus::kTimeout);
  EXPECT_EQ(b.credit_drops(), 1u);
  // With a buffer posted, the (re)sent copy goes through.
  b.post_receive(1);
  Message again = make_msg(0, 1, 0, 64);
  again.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(again)), SendStatus::kOk);
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_TRUE(got.bulk);
}

TEST(SocketFabric, SendToClosedPortReportsPeerError) {
  SocketFabric a(0, 2), b(1, 2);
  Endpoint dead;
  {
    SocketFabric ephemeral(1, 2);
    dead = ephemeral.local_endpoint();
  }  // port closed here
  std::vector<Endpoint> map{a.local_endpoint(), dead};
  a.set_peers(map);
  for (int i = 0; i < 3; ++i) {
    a.send(0, 1, make_msg(0, 1, uint32_t(i), 32));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::vector<int> errs = a.take_peer_errors();
    if (!errs.empty()) {
      EXPECT_EQ(errs[0], 1);
      return;
    }
  }
  FAIL() << "no peer error after sends to a closed port";
  (void)b;
}

TEST(SocketFabric, FailedSendIsCountedAndNotTransmitted) {
  obs::MetricsRegistry reg;
  SocketFabricConfig cfg;
  cfg.metrics = &reg;
  SocketFabric a(0, 2, cfg);
  // Without SO_BROADCAST, sendto() to the limited broadcast address fails
  // (EACCES). To the transport that is loss: send() still reports kOk.
  a.set_peers({a.local_endpoint(), Endpoint{0xffffffffu, 9}});
  const size_t two_fragments = kMaxFragmentBytes + 1;
  EXPECT_EQ(a.send(0, 1, make_msg(0, 1, 0, two_fragments)), SendStatus::kOk);
  const obs::Labels self{0, -1};
  EXPECT_EQ(reg.counter(obs::family::kSocketSendFailures, self).value(), 2u);
  EXPECT_EQ(reg.counter(obs::family::kSocketDatagramsTx, self).value(), 0u);
}

// --- Forged datagrams --------------------------------------------------------

// A datagram in SocketFabric's wire layout with a valid header CRC, built
// field by field the way a hostile sender would.
std::vector<uint8_t> forge(int src, uint32_t msg_id, uint16_t index,
                           uint16_t count, uint32_t total, uint32_t off,
                           size_t bytes) {
  std::vector<uint8_t> d(48 + bytes, 0x5a);
  auto u32 = [&](size_t at, uint32_t v) { std::memcpy(&d[at], &v, 4); };
  auto u16 = [&](size_t at, uint16_t v) { std::memcpy(&d[at], &v, 2); };
  u32(0, 0x50445746u);  // 'PDWF'
  u32(4, uint32_t(src));
  u32(8, 1);   // type
  u32(12, msg_id);  // seq: lets the test tell messages apart
  u16(16, 0);
  d[18] = 0;  // stream
  d[19] = 0;  // not bulk
  u32(20, 0);
  u32(24, 0);
  u32(28, msg_id);
  u16(32, index);
  u16(34, count);
  u32(36, total);
  u32(40, off);
  u32(44, crc32(std::span<const uint8_t>(d.data(), 44)));
  return d;
}

void send_raw(UdpSocket& sock, Endpoint to, const std::vector<uint8_t>& d) {
  ASSERT_TRUE(sock.send(to, d));
}

TEST(SocketFabric, ForgedDatagramsCannotGrowReassemblyUnbounded) {
  obs::MetricsRegistry reg;
  SocketFabricConfig cfg;
  cfg.metrics = &reg;
  SocketFabric b(1, 2, cfg);
  UdpSocket raw;
  const obs::Labels self{1, -1};
  Message got;

  // A first fragment claiming a 4 GiB message is refused, not allocated.
  send_raw(raw, b.local_endpoint(), forge(0, 1, 0, 2, 0xffffffffu, 0, 64));
  send_raw(raw, b.local_endpoint(),
           forge(0, 2, 0, 2, uint32_t(kMaxMessageBytes) + 1, 0, 64));
  EXPECT_EQ(b.receive_for(1, 0.05, &got), RecvStatus::kTimeout);
  EXPECT_EQ(reg.counter(obs::family::kSocketRxDrops, self).value(), 2u);
  EXPECT_TRUE(b.quiescent());

  // kMaxPartials + 1 fresh first fragments: the map stays at its cap by
  // evicting the oldest (msg 100), so msgs 101 and 100 + kMaxPartials
  // complete while msg 100's second half only starts a new entry.
  for (uint32_t id = 100; id <= 100 + kMaxPartials; ++id)
    send_raw(raw, b.local_endpoint(), forge(0, id, 0, 2, 128, 0, 64));
  for (const uint32_t id : {101u, uint32_t(100 + kMaxPartials), 100u})
    send_raw(raw, b.local_endpoint(), forge(0, id, 1, 2, 128, 64, 64));
  std::vector<uint32_t> completed;
  while (b.receive_for(1, 0.1, &got) == RecvStatus::kOk)
    completed.push_back(got.seq);
  EXPECT_EQ(completed,
            (std::vector<uint32_t>{101u, uint32_t(100 + kMaxPartials)}));
}

// --- Rendezvous ------------------------------------------------------------

TEST(Rendezvous, AllJoinersReceiveTheSameCompleteMap) {
  const int n = 4;
  RendezvousServer server(n);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);

  std::vector<Endpoint> locals(n);
  for (int i = 0; i < n; ++i)
    locals[size_t(i)] = Endpoint{kLoopbackIp, uint16_t(9000 + i)};
  std::vector<std::vector<Endpoint>> maps(n);
  std::vector<RendezvousStatus> status(n, RendezvousStatus::kTimeout);
  std::vector<std::thread> joiners;
  for (int i = 0; i < n; ++i)
    joiners.emplace_back([&, i] {
      status[size_t(i)] = rendezvous_join(server.endpoint(), i,
                                          locals[size_t(i)], n,
                                          &maps[size_t(i)], cfg);
    });
  for (auto& t : joiners) t.join();
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(status[size_t(i)], RendezvousStatus::kOk) << i;
    ASSERT_EQ(maps[size_t(i)].size(), size_t(n));
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(maps[size_t(i)][size_t(j)].ip, locals[size_t(j)].ip);
      EXPECT_EQ(maps[size_t(i)][size_t(j)].port, locals[size_t(j)].port);
    }
  }
}

TEST(Rendezvous, JoinTimesOutWithoutAListener) {
  RendezvousConfig cfg;
  cfg.timeout_s = 0.3;
  std::vector<Endpoint> map;
  // Port 9 (discard) on loopback: nothing rendezvous-shaped listens there.
  EXPECT_EQ(rendezvous_join(Endpoint{kLoopbackIp, 9}, 0,
                            Endpoint{kLoopbackIp, 1000}, 2, &map, cfg),
            RendezvousStatus::kTimeout);
}

TEST(Rendezvous, FailedJoinSendsAreCounted) {
  // As in FailedSendIsCountedAndNotTransmitted: sendto() to the limited
  // broadcast address fails without SO_BROADCAST.
  obs::MetricsRegistry reg;
  RendezvousConfig cfg;
  cfg.timeout_s = 0.2;
  cfg.metrics = &reg;
  std::vector<Endpoint> map;
  EXPECT_EQ(rendezvous_join(Endpoint{0xffffffffu, 9}, 3,
                            Endpoint{kLoopbackIp, 1000}, 4, &map, cfg),
            RendezvousStatus::kTimeout);
  EXPECT_GT(
      reg.counter(obs::family::kRendezvousSendFailures, obs::Labels{3, -1})
          .value(),
      0u);
}

// --- Rendezvous against scripted fake peers ---------------------------------
//
// Each fake peer is a plain UdpSocket that the test drives datagram by
// datagram, so loss is injected exactly where the test says and every
// assertion counts datagrams instead of timing them.

using Kind = RendezvousMsg::Kind;

// The next rendezvous datagram on `sock` within `timeout_s`, or nullopt.
std::optional<RendezvousMsg> next_rv(UdpSocket& sock, int nodes,
                                     Endpoint* from, double timeout_s) {
  uint8_t buf[64];
  if (!sock.wait(timeout_s)) return std::nullopt;
  const std::optional<size_t> n = sock.recv(buf, from);
  return n ? decode_rendezvous({buf, *n}, nodes) : std::nullopt;
}

// A fake listener on its own thread: hands every datagram to `on_msg`, and
// nullopt after each 5 ms without one, until stop(); then the counters it
// updates are safe to read.
class FakeListener {
 public:
  using Handler = std::function<void(
      UdpSocket&, const std::optional<RendezvousMsg>&, Endpoint from)>;
  FakeListener(int nodes, Handler on_msg)
      : thread_([this, nodes, on_msg] {
          while (!stop_.load()) {
            Endpoint from;
            on_msg(sock_, next_rv(sock_, nodes, &from, 0.005), from);
          }
        }) {}
  ~FakeListener() { stop(); }
  FakeListener(const FakeListener&) = delete;
  FakeListener& operator=(const FakeListener&) = delete;

  Endpoint endpoint() const { return sock_.local(); }
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

 private:
  UdpSocket sock_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

const std::vector<Endpoint> kFakeMap = {{kLoopbackIp, 7000},
                                        {kLoopbackIp, 7001}};

bool is(const std::optional<RendezvousMsg>& m, Kind kind) {
  return m && m->kind == kind;
}

TEST(RendezvousLoss, JoinerResendsJoinOnlyOnItsBackoffNotOnWait) {
  int joins = 0;
  FakeListener listener(2, [&](UdpSocket& s, const auto& m, Endpoint from) {
    if (!is(m, Kind::kJoin)) return;
    ++joins;
    s.send(from, encode_rendezvous({Kind::kWait, 0, {}, {}}));
  });
  RendezvousConfig cfg;
  cfg.timeout_s = 0.3;
  std::vector<Endpoint> map;
  EXPECT_EQ(rendezvous_join(listener.endpoint(), 0, kFakeMap[0], 2, &map, cfg),
            RendezvousStatus::kTimeout);
  listener.stop();
  // Backoff slots at 0, 20, 60, 140 and 300 ms: about five JOINs. A joiner
  // that answered every WAIT with a JOIN sends thousands.
  EXPECT_GE(joins, 2);
  EXPECT_LE(joins, 10);
}

TEST(RendezvousLoss, JoinerReacksALostMapAckAndLeavesOnDone) {
  int acks = 0, dones = 0;
  Endpoint joiner;
  FakeListener listener(2, [&](UdpSocket& s, const auto& m, Endpoint from) {
    if (is(m, Kind::kJoin)) joiner = from;
    // The first MAP_ACK is "lost": only later ones are confirmed.
    if (is(m, Kind::kMapAck) && ++acks > 1) {
      s.send(from, encode_rendezvous({Kind::kDone, 0, {}, {}}));
      ++dones;
    }
    // Push the map whenever idle, before and after DONE alike. The quiet
    // window never opens, so the joiner can leave early only on DONE;
    // without it the joiner would ack every push until its 5 s deadline.
    if (!m && joiner.port != 0)
      s.send(joiner, encode_rendezvous({Kind::kMap, 0, {}, kFakeMap}));
  });
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  std::vector<Endpoint> map;
  EXPECT_EQ(rendezvous_join(listener.endpoint(), 1, kFakeMap[1], 2, &map, cfg),
            RendezvousStatus::kOk);
  listener.stop();
  EXPECT_EQ(map, kFakeMap);
  EXPECT_GE(acks, 2);
  EXPECT_LE(acks, 20);
  EXPECT_GE(dones, 1);
}

TEST(RendezvousLoss, JoinerWithTheMapLeavesWhenDoneNeverComes) {
  int acks = 0;
  FakeListener listener(2, [&](UdpSocket& s, const auto& m, Endpoint from) {
    if (is(m, Kind::kJoin))
      s.send(from, encode_rendezvous({Kind::kMap, 0, {}, kFakeMap}));
    if (is(m, Kind::kMapAck)) ++acks;  // never confirmed
  });
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  std::vector<Endpoint> map;
  EXPECT_EQ(rendezvous_join(listener.endpoint(), 0, kFakeMap[0], 2, &map, cfg),
            RendezvousStatus::kOk);
  listener.stop();
  EXPECT_EQ(map, kFakeMap);
  // One MAP, yet more than one ack: the joiner re-acks on its timer while
  // it waits out the quiet window.
  EXPECT_GE(acks, 2);
}

TEST(RendezvousLoss, ListenerResendsALostMapAndConfirmsTheLateAck) {
  RendezvousServer server(1);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);

  // A fake joiner that "loses" the first MAP.
  UdpSocket joiner;
  const Endpoint fabric{kLoopbackIp, 7000};
  joiner.send(server.endpoint(), encode_rendezvous({Kind::kJoin, 0, fabric, {}}));
  int maps = 0;
  bool done = false;
  while (!done) {
    Endpoint from;
    const std::optional<RendezvousMsg> m = next_rv(joiner, 1, &from, 5.0);
    ASSERT_TRUE(m.has_value()) << "after " << maps << " MAPs";
    if (m->kind == Kind::kMap) {
      EXPECT_EQ(m->map, std::vector<Endpoint>{fabric});
      if (++maps > 1)
        joiner.send(server.endpoint(),
                    encode_rendezvous({Kind::kMapAck, 0, {}, {}}));
    }
    done = m->kind == Kind::kDone;
  }
  EXPECT_GE(maps, 2);
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
}

// --- Adaptive RTO over real sockets ----------------------------------------

TEST(SocketReliable, AdaptiveRtoLearnsFromRttSamples) {
  SocketFabric fa(0, 2), fb(1, 2);
  wire({&fa, &fb});
  ReliableConfig cfg;  // adaptive by default
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);
  EXPECT_DOUBLE_EQ(tx.srtt_s(1), 0.0);  // no samples yet

  std::atomic<bool> done{false};
  std::thread pump([&] {
    Message m;
    int received = 0;
    while (received < 20 && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage) ++received;
    }
    // Keep t-acking the sender's tail until it has seen every ack.
    while (!done.load()) rx.recv(&m, 0.01);
  });
  for (uint32_t i = 0; i < 20; ++i) {
    tx.send(1, make_msg(0, 1, i, 256));
    Message m;
    tx.recv(&m, 0.005);
  }
  for (int i = 0; i < 1000 && tx.unacked() > 0; ++i) {
    Message m;
    tx.recv(&m, 0.005);
  }
  done.store(true);
  pump.join();

  EXPECT_EQ(tx.unacked(), 0u);
  EXPECT_GT(tx.stats().rtt_samples, 0u);
  EXPECT_GT(tx.srtt_s(1), 0.0);
  EXPECT_LT(tx.srtt_s(1), 0.05);  // loopback: well under 50 ms
  EXPECT_GE(tx.rto_s(1), cfg.rto_initial_s);  // the floor
  EXPECT_LE(tx.rto_s(1), cfg.rto_max_s);
}

// --- Per-datagram fault injection ------------------------------------------

std::vector<uint32_t> survivors(uint64_t seed) {
  FaultRates rates;
  rates.drop = 0.25;
  const FaultInjector injector(seed, rates);
  SocketFabricConfig cfg;
  cfg.injector = &injector;
  SocketFabric fa(0, 2), fb(1, 2, cfg);
  wire({&fa, &fb});
  for (uint32_t i = 0; i < 40; ++i) fa.send(0, 1, make_msg(0, 1, i, 64));
  std::vector<uint32_t> got;
  Message m;
  while (fb.receive_for(1, 0.1, &m) == RecvStatus::kOk) got.push_back(m.seq);
  return got;
}

TEST(SocketFabric, InjectorScheduleIsDeterministicAndCrashKillsReceiver) {
  const std::vector<uint32_t> a = survivors(7), b = survivors(7);
  EXPECT_EQ(a, b);           // same seed, same survivors
  EXPECT_NE(a.size(), 40u);  // at 25% loss some datagrams really died
  EXPECT_FALSE(a.empty());

  // An exact crash event: node 1 dies when its 3rd datagram would arrive.
  FaultInjector crash;
  crash.add_event(
      FaultEvent{.kind = FaultEvent::Kind::kCrash, .dst = 1, .at_ordinal = 3});
  SocketFabricConfig cfg;
  cfg.injector = &crash;
  SocketFabric fa(0, 2), fb(1, 2, cfg);
  wire({&fa, &fb});
  Message m;
  for (uint32_t i = 0; i < 3; ++i) {
    fa.send(0, 1, make_msg(0, 1, i, 64));
    ASSERT_EQ(fb.receive_for(1, 1.0, &m), RecvStatus::kOk) << i;
    EXPECT_EQ(m.seq, i);
  }
  fa.send(0, 1, make_msg(0, 1, 3, 64));
  EXPECT_EQ(fb.receive_for(1, 1.0, &m), RecvStatus::kDead);
  EXPECT_TRUE(fb.is_dead(1));
}

TEST(SocketFabric, DelayedDatagramArrivesAfterLaterOnes) {
  // Hold the first datagram back for one later datagram, and the third for
  // five that never come.
  FaultInjector injector;
  injector.add_event(FaultEvent{
      .kind = FaultEvent::Kind::kDelay, .dst = 1, .at_ordinal = 0,
      .param = 1});
  injector.add_event(FaultEvent{
      .kind = FaultEvent::Kind::kDelay, .dst = 1, .at_ordinal = 2,
      .param = 5});
  SocketFabricConfig cfg;
  cfg.injector = &injector;
  SocketFabric fa(0, 2), fb(1, 2, cfg);
  wire({&fa, &fb});
  fa.send(0, 1, make_msg(0, 1, 0, 64));
  fa.send(0, 1, make_msg(0, 1, 1, 64));
  std::vector<uint32_t> got;
  Message m;
  while (fb.receive_for(1, 0.1, &m) == RecvStatus::kOk) got.push_back(m.seq);
  EXPECT_EQ(got, (std::vector<uint32_t>{1, 0}));
  EXPECT_TRUE(fb.quiescent());

  // A parked datagram with nothing after it still arrives: the receiver
  // releases it instead of waiting.
  fa.send(0, 1, make_msg(0, 1, 2, 64));
  ASSERT_EQ(fb.receive_for(1, 1.0, &m), RecvStatus::kOk);
  EXPECT_EQ(m.seq, 2u);
}

// --- Reliable delivery under seeded datagram faults (seeded sweep) ---------

struct SweepResult {
  ReliableStats tx_stats;
  ReliableStats rx_stats;
  std::vector<uint32_t> delivered_seqs;
  uint64_t dropped = 0;  // datagrams the injector dropped, both directions
};

SweepResult run_faulty_transfer(uint64_t seed, double loss, double dup,
                                double delay, int count) {
  FaultRates rates;
  rates.drop = loss;
  rates.dup = dup;
  rates.delay = delay;
  const FaultInjector injector(seed, rates);
  SocketFabricConfig fab_cfg;
  fab_cfg.injector = &injector;
  SocketFabric fa(0, 2, fab_cfg), fb(1, 2, fab_cfg);
  wire({&fa, &fb});

  ReliableConfig cfg;
  cfg.rto_initial_s = 0.002;
  cfg.rto_max_s = 0.032;
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);

  SweepResult res;
  std::atomic<bool> done{false};
  std::thread rx_thread([&] {
    Message m;
    while (int(res.delivered_seqs.size()) < count && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage)
        res.delivered_seqs.push_back(m.seq);
    }
    while (!done.load()) rx.recv(&m, 0.01);  // t-ack the sender's tail
  });

  for (uint32_t i = 0; i < uint32_t(count); ++i) {
    Message m = make_msg(0, 1, i, 400 + (i % 7) * 100);
    m.seq = i;  // the reliable layer overwrites tseq, not seq
    tx.send(1, std::move(m));
    Message got;
    tx.recv(&got, 0.001);
  }
  // Drive retransmissions until everything is acked (or a bounded deadline
  // passes — the assertions below catch a stall).
  for (int i = 0; i < 4000 && tx.unacked() > 0; ++i) {
    Message got;
    tx.recv(&got, 0.005);
  }
  done.store(true);
  rx_thread.join();
  res.tx_stats = tx.stats();
  res.rx_stats = rx.stats();
  res.dropped = fa.counters(0).dropped_messages + fb.counters(1).dropped_messages;
  return res;
}

TEST(SocketReliable, SurvivesSeededLossDupDelaySweep) {
  int sweep_index = 0;
  for (const double loss : {0.02, 0.05, 0.10}) {
    SCOPED_TRACE(loss);
    const int count = 200;
    const SweepResult res = run_faulty_transfer(
        /*seed=*/uint64_t(1000 + sweep_index++), loss, /*dup=*/0.05,
        /*delay=*/0.10, count);

    // Exactly-once, in-order: the application saw every seq exactly once,
    // ascending, no matter what the wire did.
    ASSERT_EQ(res.delivered_seqs.size(), size_t(count));
    for (int i = 0; i < count; ++i)
      ASSERT_EQ(res.delivered_seqs[size_t(i)], uint32_t(i));

    // Wire-level damage really happened (the injector is not a no-op)...
    EXPECT_GT(res.dropped, 0u);
    // ...and the reliable layer paid for it with retransmissions, never
    // with abandonment at these rates.
    EXPECT_GT(res.tx_stats.retransmits, 0u);
    EXPECT_EQ(res.tx_stats.abandoned, 0u);

    // Stats consistency: sends dominate retransmits + abandonments, and the
    // receiver delivered exactly what the application got.
    EXPECT_GE(res.tx_stats.sent,
              res.tx_stats.retransmits + res.tx_stats.abandoned);
    EXPECT_EQ(res.rx_stats.delivered, uint64_t(count));
  }
}

}  // namespace
}  // namespace pdw::net
