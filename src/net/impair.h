// Deterministic UDP impairment proxy: netem for the loopback wall, without
// root or tc. One proxy socket fronts each real endpoint; a datagram sent
// to front i is dropped / duplicated / delayed by a seeded per-ordinal
// decision, then forwarded to the real endpoint i. SocketFabric instances
// are simply configured with the proxy's front addresses instead of the
// real map, so loss on the socket path is *physically real* to the
// transport (the datagram never arrives) while the schedule stays
// reproducible: the fate of the n-th datagram toward a given endpoint
// depends only on (seed, endpoint index, n), never on timing.
//
// Receivers identify senders by the framing header's src field, not the
// datagram source address, so forwarding from the proxy's own socket is
// transparent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/socket_fabric.h"

namespace pdw::net {

struct ImpairConfig {
  uint64_t seed = 1;
  double loss = 0;       // P(datagram dropped)
  double dup = 0;        // P(datagram forwarded twice)
  double delay = 0;      // P(datagram held back)
  double delay_s = 0.002;  // how long a held datagram waits (reorders it
                           // past everything forwarded in the meantime)
};

class ImpairProxy {
 public:
  // Starts the forwarding thread immediately.
  ImpairProxy(std::vector<Endpoint> real, ImpairConfig cfg);
  ~ImpairProxy();

  ImpairProxy(const ImpairProxy&) = delete;
  ImpairProxy& operator=(const ImpairProxy&) = delete;

  // The front addresses, index-aligned with the real map — hand these to
  // SocketFabric::set_peers() / the fault schedule under test.
  const std::vector<Endpoint>& proxied() const { return fronts_; }

  struct Stats {
    uint64_t forwarded = 0;
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t delayed = 0;
  };
  Stats stats() const;

  // Stop forwarding and join the thread (also done by the destructor).
  void stop();

 private:
  void run();

  std::vector<Endpoint> real_;
  std::vector<Endpoint> fronts_;
  std::vector<int> fds_;  // one front socket per real endpoint
  ImpairConfig cfg_;
  std::vector<uint64_t> ordinal_;  // per-front datagram counter

  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> delayed_{0};

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class RendezvousServer;

// Impair a rendezvous-wired wall when `cfg` sets any rate above zero: the
// server then hands out the fronts of a proxy over the real endpoints, so
// every node (the root joining its own listener too) sends through the
// lossy path. The proxy lands in `*proxy` on the server's thread when the
// last node joins; read it only after server->result(). Call before
// serving.
void impair_rendezvous(RendezvousServer* server, const ImpairConfig& cfg,
                       std::unique_ptr<ImpairProxy>* proxy);

}  // namespace pdw::net
