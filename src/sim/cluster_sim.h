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
// The protocol's dependency structure is acyclic per picture (all SENDs
// precede all remote-block consumption), so the "simulation" is an exact
// forward pass over the dependency graph — equivalent to an event-queue DES
// for this protocol, but simpler and deterministic.
//
// Outputs match the paper's evaluation quantities:
//   * frame rate (Table 5/6, Figures 6/8),
//   * per-decoder runtime breakdown Work/Serve/Receive/Wait/Ack (Figure 7),
//   * per-node send/receive bandwidth (Figure 9).
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

// Fault schedule replayed by the DES — mirrors the threaded runtime's fault
// handling (net/fault.h + core/pipeline.h) on the modeled cluster, so
// recovery latency and fps-under-faults can be predicted without running
// the real pipeline.
struct SimFaultModel {
  uint64_t seed = 0;
  // Per-transmission drop probability on bulk links (picture, sub-picture
  // and exchange messages). Each drop costs the sender one retransmit
  // timeout (exponential backoff, capped) plus a repeat transfer —
  // identical decisions to FaultInjector for the same seed.
  double drop_rate = 0;
  double rto_s = 0.004;
  double rto_max_s = 0.064;

  // Kill the decoder node owning `crash_tile` right after it finishes
  // decoding picture `crash_at_picture` (-1 = no crash).
  int crash_tile = -1;
  int crash_at_picture = 0;
  // The root declares the node dead this long after its last heartbeat;
  // until then the pipeline stalls on the dead node's acks (exactly like
  // the threaded runtime's health monitor).
  double hb_timeout_s = 0.25;
  // true: the surviving decoder with the smallest tile adopts the dead
  // tile from the resync picture on (decoding both serially). false:
  // degraded mode — the dead tile stays frozen for the rest of the run.
  bool adopt = true;
};

// One recovery as replayed by the DES.
struct SimRecovery {
  int tile = -1;
  int adopter_tile = -1;      // -1 in degraded mode
  int resync_picture = -1;    // first closed-GOP picture after detection
  double crash_time_s = 0;
  double detect_time_s = 0;   // crash + heartbeat timeout
  double resync_time_s = 0;   // dead tile's slot is exact again (adopt mode)
  // Wall-clock from crash to full recovery (detection in degraded mode).
  double recovery_latency_s = 0;
};

struct SimParams {
  int k = 1;              // second-level splitters
  bool two_level = true;  // false: 1-(m,n), the root splits macroblocks itself
  LinkModel link;
  // Scale all measured compute times by this factor (1.0 = this host's
  // speed). Exposed so experiments can model slower/faster node CPUs.
  double cpu_scale = 1.0;
  SimFaultModel fault;
};

// Per-decoder accumulated runtime breakdown (Figure 7's five categories).
struct DecoderBreakdown {
  double work = 0;         // decode + display
  double serve = 0;        // extracting/sending remote macroblocks
  double receive = 0;      // waiting for the sub-picture from the splitter
  double wait_remote = 0;  // waiting for remote macroblocks
  double ack = 0;          // sending acks

  double busy() const { return work + serve + ack; }
  double total() const { return work + serve + receive + wait_remote + ack; }
};

struct NodeTraffic {
  double sent_bytes = 0;
  double recv_bytes = 0;
};

struct SimResult {
  int pictures = 0;
  double makespan_s = 0;
  double fps = 0;

  // Node indexing: 0 = root, 1..k = splitters, k+1.. = decoders.
  // (For one-level mode, k = 0 and the root is the macroblock splitter.)
  int nodes = 0;
  int first_decoder_node = 0;
  std::vector<DecoderBreakdown> decoders;   // per tile
  std::vector<NodeTraffic> traffic;         // per node, bytes over the run
  // Same bytes as `traffic`, attributed per (src, dst) link — the Fig. 9
  // node x node matrix (TrafficMatrix::to_table pretty-prints it).
  TrafficMatrix traffic_matrix;
  std::vector<double> splitter_busy_s;      // per second-level splitter

  // Fault-schedule outcomes (empty / zero on a clean run).
  std::vector<SimRecovery> recoveries;
  int degraded_frames = 0;    // display frames with a frozen dead tile
  uint64_t retransmits = 0;   // drop-induced repeat transmissions

  double send_bandwidth_Bps(int node) const {
    return traffic[size_t(node)].sent_bytes / makespan_s;
  }
  double recv_bandwidth_Bps(int node) const {
    return traffic[size_t(node)].recv_bytes / makespan_s;
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
