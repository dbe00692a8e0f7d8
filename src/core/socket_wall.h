// The wall over real UDP sockets. run_socket_wall hosts it in one process:
// one thread per node, each with its *own* SocketFabric, discovered through
// a genuine UDP rendezvous — exactly the multi-process deployment shape
// (examples/wall_node.cpp) minus fork/exec, so tests and CI can exercise the
// socket transport, the rendezvous flow and datagram loss without process
// management. The node threads are the one wall runner's
// (core/wall_runner.h); this engine only adds the fabrics and the rendezvous
// bring-up. The helpers below are the bring-up steps run_socket_wall and
// wall_node share: the telemetry exporter and joining the rendezvous.
//
// WallOptions::injector reaches every node's SocketFabric, which applies it
// to each datagram that node receives: a dropped datagram never reaches
// reassembly, so to the transport it is as lost as one the kernel dropped,
// while the schedule stays a pure function of the seed.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"

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

// The started telemetry exporter of a process hosting the `hosted` nodes of
// a `topo` wall, shipping opts.metrics and the global tracer; null when
// opts.telemetry_port is 0. stop() it after the last span.
std::unique_ptr<obs::TelemetryExporter> start_telemetry(
    const SocketWallOptions& opts, const proto::Topology& topo,
    std::vector<uint16_t> hosted);

// Join the rendezvous listening at `server` as fabric.self() and install the
// node -> endpoint map it hands out. False when cfg.timeout_s passes first.
bool join_wall(net::SocketFabric& fabric, net::Endpoint server,
               const net::RendezvousConfig& cfg);

}  // namespace pdw::core
