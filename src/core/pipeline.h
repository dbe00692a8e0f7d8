// Threaded cluster pipeline: the refined algorithms of the paper's Table 3
// running on real concurrent nodes over the GM-like fabric, hardened for
// fault tolerance.
//
// Every protocol decision — round-robin dispatch and NSID stamping, ANID
// ack redirection, one-picture-ahead go-ahead gating, heartbeat monitoring,
// death detection, resynchronization-picture selection, adopt-vs-degrade
// rerouting, skip broadcasts — lives in the proto/ node state machines
// (proto/nodes.h). The wall only *hosts* them (core/hosts.h): one thread
// per node pumps a net::ReliableEndpoint, decodes incoming wire messages,
// feeds them to its state machine and transmits whatever the machine
// returns, running the actual compute (splitting, pixel extraction, tile
// decoding) when the machine says the inputs are complete. The lockstep
// reference and the discrete-event simulator drive the very same machines,
// which keeps the engines protocol-identical by construction.
//
// Transport properties (net/):
//   * two posted receive buffers per bulk receiver, recycled on receipt;
//   * every application message rides net::ReliableEndpoint — per-link
//     sequence numbers + CRC framing, ack/retransmit with capped exponential
//     backoff, duplicate suppression and in-order delivery — so a lossy,
//     reordering, corrupting fabric still presents each node with the
//     fault-free message sequence and the decoded wall stays bit-exact;
//   * a node the root declares dead is fenced off (Fabric::kill) and dropped
//     from every endpoint's retransmit queues (forget_peer).
//
// ClusterPipeline is the in-process-fabric adapter of the one wall runner
// (core/wall_runner.h); run_socket_wall (core/socket_wall.h) is the other.
// Its frame rate is a measurement on real threads; the discrete-event
// simulator (src/sim) predicts the same wall from lockstep-measured costs,
// and those predictions are checked against such measurements.
#pragma once

#include <functional>
#include <span>

#include "common/traffic_matrix.h"
#include "core/hosts.h"
#include "core/tile_decoder.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "net/reliable.h"
#include "proto/nodes.h"
#include "wall/geometry.h"

namespace pdw::core {

struct FtStats {
  net::ReliableStats transport;   // aggregated over every node's endpoint
  uint64_t degraded_frames = 0;   // emissions flagged non-bit-exact
  uint64_t skipped_pictures = 0;  // per-tile pictures lost to abandoned sends
  std::vector<RecoveryEvent> recoveries;
};

struct ClusterStats {
  int pictures = 0;
  double wall_seconds = 0;
  double fps = 0;
  std::vector<net::NodeCounters> node_counters;  // by node id
  // Transport-level bytes (includes retransmits and transport acks).
  TrafficMatrix traffic_matrix;
  // Protocol-level emissions (heartbeats and retransmits excluded) —
  // directly comparable with LockstepPipeline::accounting().
  proto::WireAccounting wire;
  int nodes = 0;
  FtStats ft;
};

// Kept for callers that spell the options FtOptions.
using FtOptions = WallOptions;

class ClusterPipeline {
 public:
  ClusterPipeline(const wall::TileGeometry& geo, int k,
                  std::span<const uint8_t> es, WallOptions opts = {});

  // Thread-safe display callback (called with an internal mutex held).
  using TileDisplayFn = core::TileDisplayFn;

  ClusterStats run(const TileDisplayFn& on_display);

  int nodes() const { return topo_.nodes(); }
  int root_node() const { return topo_.root(); }
  int splitter_node(int s) const { return topo_.splitter(s); }
  int decoder_node(int t) const { return topo_.decoder(t); }

 private:
  const wall::TileGeometry& geo_;
  int k_;
  proto::Topology topo_;
  std::span<const uint8_t> es_;
  WallOptions opts_;
};

}  // namespace pdw::core
