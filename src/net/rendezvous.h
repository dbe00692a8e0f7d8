// UDP rendezvous for the multi-process wall: how N wall_node processes that
// only share one well-known address find each other's ephemeral endpoints.
//
// Protocol (all datagrams, all idempotent, safe under loss/duplication):
//   * joiner -> listener  JOIN(node, endpoint)   on its backoff timer only
//   * listener -> joiner  WAIT                   not everyone has joined yet
//   * listener -> joiner  MAP(node -> endpoint)  complete map, resent until
//   * joiner -> listener  MAP_ACK(node)          ...that node acks
//   * listener -> joiner  DONE                   the reply to every MAP_ACK
//
// Timers: a joiner sends JOIN when its backoff slot (20 ms, doubling to
// 500 ms) is up, never in reply to WAIT, so an early joiner sleeps instead
// of ping-ponging with the listener until the last node joins. The listener
// resends MAP every 50 ms to each node that has not acked. A joiner acks
// every MAP it receives and re-sends MAP_ACK every 10 ms until DONE.
//
// The listener returns once every node has joined and acked; a joiner
// returns on DONE. If DONE is lost after the listener returned, the joiner
// still holds the map and leaves after a quiet window of 120 ms without a
// MAP. Joiners never hang: rendezvous_join() returns a typed kTimeout when
// the deadline passes without a map (a missing peer process is an operator
// error, not a livelock).
//
// A failed send is counted, not ignored: when a side finishes it adds its
// socket's failed sends to rendezvous_send_failures (joiners labeled
// {node = self}, the listener {node = -1}) and, on timeout, logs the count
// and the last errno to stderr, so a rendezvous that could not send reads
// differently from one nobody answered.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/udp.h"
#include "obs/metrics.h"

namespace pdw::net {

enum class RendezvousStatus { kOk, kTimeout };

struct RendezvousConfig {
  double timeout_s = 10.0;                  // overall join/serve deadline
  obs::MetricsRegistry* metrics = nullptr;  // send failures (null: global)
};

// One rendezvous datagram. Parsing and building are pure functions, so the
// parser of this untrusted UDP input is fuzzed without a socket
// (fuzz/fuzz_rendezvous.cpp).
//
// Layout (little-endian u32 fields):
//   JOIN:    magic, kind=1, node, ip, port
//   WAIT:    magic, kind=2
//   MAP:     magic, kind=3, count, count x (ip, port)
//   MAP_ACK: magic, kind=4, node
//   DONE:    magic, kind=5
struct RendezvousMsg {
  enum class Kind : uint32_t {
    kJoin = 1, kWait = 2, kMap = 3, kMapAck = 4, kDone = 5
  };
  Kind kind = Kind::kWait;
  int node = 0;               // JOIN, MAP_ACK
  Endpoint endpoint;          // JOIN: the joiner's fabric endpoint
  std::vector<Endpoint> map;  // MAP: node -> fabric endpoint

  friend bool operator==(const RendezvousMsg&, const RendezvousMsg&) = default;
};

std::vector<uint8_t> encode_rendezvous(const RendezvousMsg& msg);

// Parse one datagram of a `nodes`-node wall. Returns nullopt on anything
// malformed: wrong magic or kind, a length other than the kind's, a node id
// outside [0, nodes), a port above 65535, or a map of other than `nodes`
// entries.
std::optional<RendezvousMsg> decode_rendezvous(std::span<const uint8_t> dgram,
                                               int nodes);

// Register `self` (listening at `local`) with the listener at `server` and
// collect the full node -> endpoint map into `*out` (size `nodes`).
RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg = {});

// The one listener (hosted by the root process, or by the test driver for
// an in-process wall). Collects JOINs, then pushes MAP until acked, and
// answers every MAP_ACK with DONE.
class RendezvousServer {
 public:
  // port 0 binds an ephemeral port; endpoint() reports the actual one.
  explicit RendezvousServer(int nodes, uint16_t port = 0);
  ~RendezvousServer();

  RendezvousServer(const RendezvousServer&) = delete;
  RendezvousServer& operator=(const RendezvousServer&) = delete;

  Endpoint endpoint() const { return sock_.local(); }

  // Serve until every node joined and acked the map, or the deadline.
  RendezvousStatus serve(RendezvousConfig cfg = {});

  // serve() on a background thread (in-process walls / the root host);
  // result() joins it and returns the outcome.
  void serve_async(RendezvousConfig cfg = {});
  RendezvousStatus result();

 private:
  UdpSocket sock_;
  int nodes_;
  std::vector<Endpoint> map_;
  // Source address of each node's JOIN — where MAP replies go (the joiner's
  // rendezvous socket, distinct from its fabric endpoint in map_).
  std::vector<Endpoint> join_source_;
  std::vector<bool> joined_;
  std::vector<bool> acked_;
  std::thread thread_;
  RendezvousStatus async_result_ = RendezvousStatus::kTimeout;
};

}  // namespace pdw::net
