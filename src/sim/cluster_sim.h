// Discrete-event cluster simulator.
//
// A machine running the threaded wall has far fewer cores than the paper's
// 25-PC cluster has nodes, so this simulator predicts what the cluster would
// do. The lockstep pipeline measures the true cost of every protocol
// operation on real data (split time, per-tile decode time, serve time,
// every message size), and this simulator replays the paper's Table-3
// protocol on a modeled cluster: one node per PC, sequential compute per
// node, and a Myrinet-class link model (per-node NIC serialization at a
// configurable bandwidth plus a fixed per-message latency). Its figures are
// predictions, to be checked against the measured threaded and socket walls.
//
// Like the paper (§3, reliable Myrinet), the replay is fault-free: no drops,
// retransmits or node deaths. Fault and recovery costs are measured on the
// real threaded wall instead (bench_fault_recovery), which runs the actual
// ReliableEndpoint and RootNode recovery protocol.
//
// The protocol's dependency structure is acyclic per picture (all SENDs
// precede all remote-block consumption), so the "simulation" is an exact
// forward pass over the dependency graph — equivalent to an event-queue DES
// for this protocol, but simpler and deterministic.
//
// Outputs match the paper's evaluation quantities:
//   * frame rate (Table 5/6, Figures 6/8): SimResult::fps;
//   * per-decoder runtime breakdown Work/Serve/Receive/Wait/Ack (Figure 7):
//     the traced spans, reduced by obs::fig7_breakdown;
//   * per-node send/receive bandwidth (Figure 9): SimResult::traffic_matrix.
#pragma once

#include <vector>

#include "common/traffic_matrix.h"
#include "core/lockstep.h"
#include "wall/geometry.h"

namespace pdw::sim {

// Chrome-trace pid offset for simulated nodes: the DES emits its virtual-time
// spans as pid = kSimTracePidBase + node so the modeled cluster shows up as a
// separate process group next to any real (threaded-engine) spans in the same
// trace file.
inline constexpr int kSimTracePidBase = 10000;

struct LinkModel {
  double bandwidth_bps = 160e6 * 8;  // Myrinet-class: ~160 MB/s per link
  double latency_s = 10e-6;          // per-message one-way latency
  double ack_cpu_s = 3e-6;           // CPU cost to emit an ack/go-ahead

  double transfer_s(size_t bytes) const {
    return double(bytes) * 8.0 / bandwidth_bps;
  }
};

struct SimParams {
  int k = 1;              // second-level splitters
  bool two_level = true;  // false: 1-(m,n), the root splits macroblocks itself
  LinkModel link;
};

struct SimResult {
  int pictures = 0;
  double makespan_s = 0;
  double fps = 0;

  // Node indexing: 0 = root, 1..k = splitters, k+1.. = decoders.
  // (For one-level mode, k = 0 and the root is the macroblock splitter.)
  int nodes = 0;
  int first_decoder_node = 0;
  // Bytes over the run per (src, dst) link: the Fig. 9 node x node matrix
  // (TrafficMatrix::to_table pretty-prints it).
  TrafficMatrix traffic_matrix;

  double send_bandwidth_Bps(int node) const {
    return double(traffic_matrix.sent_by(node)) / makespan_s;
  }
  double recv_bandwidth_Bps(int node) const {
    return double(traffic_matrix.received_by(node)) / makespan_s;
  }
};

// Replay `traces` (from LockstepPipeline::run) on the modeled cluster.
SimResult simulate_cluster(const std::vector<core::PictureTrace>& traces,
                           const wall::TileGeometry& geo,
                           const SimParams& params);

// Convenience: average split / per-tile decode seconds from traces (the t_s
// and t_d of the paper's §4.6 model).
struct MeasuredCosts {
  double t_split = 0;       // mean split time per picture
  double t_decode = 0;      // mean decode time per picture of the slowest tile
  double t_decode_mean = 0; // mean across tiles
  double t_copy = 0;        // root copy time
};
MeasuredCosts measure_costs(const std::vector<core::PictureTrace>& traces);

}  // namespace pdw::sim
