#include "core/socket_wall.h"

#include <memory>
#include <vector>

#include "core/wall_runner.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"

namespace pdw::core {

namespace {

// Every node of an in-process wall joins within milliseconds; a rendezvous
// still incomplete after this long means a node thread failed to start.
constexpr double kRendezvousTimeoutS = 20.0;

}  // namespace

ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             SocketWallOptions opts) {
  const int tiles = geo.tiles();
  const int n = proto::Topology{k, tiles}.nodes();

  // Telemetry sideband: this process hosts every node, so one exporter
  // announces them all and ships the shared registry + tracer.
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (opts.telemetry_port != 0) {
    obs::TelemetryExporterConfig tcfg;
    tcfg.collector = {net::kLoopbackIp, opts.telemetry_port};
    tcfg.interval_s = opts.telemetry_interval_s;
    tcfg.metrics = opts.metrics;
    tcfg.k = uint16_t(k);
    tcfg.tiles = uint16_t(tiles);
    tcfg.nodes = uint16_t(n);
    for (int node = 0; node < n; ++node)
      tcfg.hosted.push_back(uint16_t(node));
    telemetry = std::make_unique<obs::TelemetryExporter>(tcfg);
    telemetry->start();
  }

  // The rendezvous listener hands out the endpoint map exactly as it would
  // across machines.
  net::RendezvousServer rv(n);
  net::RendezvousConfig rv_cfg;
  rv_cfg.timeout_s = kRendezvousTimeoutS;
  rv_cfg.metrics = opts.metrics;
  rv.serve_async(rv_cfg);

  // Every node gets its own socket fabric.
  std::vector<std::unique_ptr<net::SocketFabric>> sockets;
  std::vector<net::FabricBackend*> fabrics;
  net::SocketFabricConfig fab_cfg;
  fab_cfg.metrics = opts.metrics;
  fab_cfg.injector = opts.injector;
  for (int node = 0; node < n; ++node) {
    sockets.push_back(std::make_unique<net::SocketFabric>(node, n, fab_cfg));
    fabrics.push_back(sockets.back().get());
  }

  ClusterStats stats =
      run_wall(geo, k, es, on_display, opts, fabrics, [&](int node) {
        net::SocketFabric& fabric = *sockets[size_t(node)];
        std::vector<net::Endpoint> peers;
        const net::RendezvousStatus st = net::rendezvous_join(
            rv.endpoint(), node, fabric.local_endpoint(), n, &peers, rv_cfg);
        PDW_CHECK(st == net::RendezvousStatus::kOk)
            << " node " << node << " rendezvous timeout";
        fabric.set_peers(peers);
      });
  PDW_CHECK(rv.result() == net::RendezvousStatus::kOk)
      << " rendezvous listener timed out";
  if (telemetry) telemetry->stop();  // final flush + Bye, after all spans
  return stats;
}

}  // namespace pdw::core
