// The wall over real UDP sockets, in one process: one thread per node, each
// with its *own* SocketFabric, discovered through a genuine UDP rendezvous —
// exactly the multi-process deployment shape (examples/wall_node.cpp) minus
// fork/exec, so tests and CI can exercise the socket transport, the
// rendezvous flow and datagram loss without process management. The
// node threads are the one wall runner's (core/wall_runner.h); this engine
// only adds the fabrics and the rendezvous bring-up.
//
// WallOptions::injector reaches every node's SocketFabric, which applies it
// to each datagram that node receives: a dropped datagram never reaches
// reassembly, so to the transport it is as lost as one the kernel dropped,
// while the schedule stays a pure function of the seed.
#pragma once

#include <span>

#include "core/pipeline.h"

namespace pdw::core {

struct SocketWallOptions : WallOptions {
  // Telemetry sideband: when telemetry_port != 0, one process-wide exporter
  // streams metric/span deltas to a collector at 127.0.0.1:telemetry_port.
  uint16_t telemetry_port = 0;
  double telemetry_interval_s = 0.2;
};

// Run the full wall over per-node UDP socket fabrics on loopback. The
// returned stats are shaped exactly like ClusterPipeline::run()'s —
// stats.wire is directly comparable against the threaded and lockstep
// engines (ProtocolEquivalence proves it equal).
ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             SocketWallOptions opts = {});

}  // namespace pdw::core
