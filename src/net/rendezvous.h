// UDP rendezvous for the multi-process wall: how N wall_node processes that
// only share one well-known address find each other's ephemeral endpoints.
//
// Protocol (all datagrams, all idempotent, safe under loss/duplication):
//   * joiner -> listener  JOIN(node, endpoint)   retried with capped backoff
//   * listener -> joiner  WAIT                    not everyone has joined yet
//   * listener -> joiner  MAP(node -> endpoint)   complete map, resent until
//   * joiner -> listener  MAP_ACK(node)           ...every node has acked
//
// Joiners never hang: rendezvous_join() retries JOIN under capped
// exponential backoff and returns a typed kTimeout when the deadline
// passes (a missing peer process is an operator error, not a livelock).
//
// A failed sendto() is counted, not ignored: both sides add it to
// rendezvous_send_failures (joiners labeled {node = self}, the listener
// {node = -1}) and, on timeout, log the count and the last errno to stderr,
// so a rendezvous that could not send reads differently from one nobody
// answered.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "net/socket_fabric.h"

namespace pdw::net {

enum class RendezvousStatus { kOk, kTimeout };

struct RendezvousConfig {
  double timeout_s = 10.0;          // overall join/serve deadline
  double backoff_initial_s = 0.02;  // first JOIN retry delay
  double backoff_max_s = 0.5;       // retry delay cap
  obs::MetricsRegistry* metrics = nullptr;  // send failures (null: global)
};

// Register `self` (listening at `local`) with the listener at `server` and
// collect the full node -> endpoint map into `*out` (size `nodes`).
RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg = {});

// The one listener (hosted by the root process, or by the test driver for
// an in-process wall). Collects JOINs, then pushes MAP until acked.
class RendezvousServer {
 public:
  // port 0 binds an ephemeral port; endpoint() reports the actual one.
  explicit RendezvousServer(int nodes, uint16_t port = 0);
  ~RendezvousServer();

  RendezvousServer(const RendezvousServer&) = delete;
  RendezvousServer& operator=(const RendezvousServer&) = delete;

  Endpoint endpoint() const { return local_; }

  // Serve until every node joined and acked the map, or the deadline.
  RendezvousStatus serve(RendezvousConfig cfg = {});

  // serve() on a background thread (in-process walls / the root host);
  // result() joins it and returns the outcome.
  void serve_async(RendezvousConfig cfg = {});
  RendezvousStatus result();

  // The collected map (valid once serve() returned kOk).
  const std::vector<Endpoint>& map() const { return map_; }

 private:
  int fd_ = -1;
  Endpoint local_;
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
