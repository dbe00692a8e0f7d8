#include "core/socket_wall.h"

#include <memory>
#include <vector>

#include "core/wall_runner.h"

namespace pdw::core {

namespace {

// Every node of an in-process wall joins within milliseconds; a rendezvous
// still incomplete after this long means a node thread failed to start.
constexpr double kRendezvousTimeoutS = 20.0;

}  // namespace

std::unique_ptr<obs::TelemetryExporter> start_telemetry(
    const SocketWallOptions& opts, const proto::Topology& topo,
    std::vector<uint16_t> hosted) {
  if (opts.telemetry_port == 0) return nullptr;
  obs::TelemetryExporterConfig cfg;
  cfg.collector = {net::kLoopbackIp, opts.telemetry_port};
  cfg.interval_s = opts.telemetry_interval_s;
  cfg.metrics = opts.metrics;
  cfg.k = uint16_t(topo.k);
  cfg.tiles = uint16_t(topo.tiles);
  cfg.nodes = uint16_t(topo.nodes());
  cfg.hosted = std::move(hosted);
  auto exporter = std::make_unique<obs::TelemetryExporter>(std::move(cfg));
  exporter->start();
  return exporter;
}

bool join_wall(net::SocketFabric& fabric, net::Endpoint server,
               const net::RendezvousConfig& cfg) {
  std::vector<net::Endpoint> peers;
  if (net::rendezvous_join(server, fabric.self(), fabric.local_endpoint(),
                           fabric.nodes(), &peers,
                           cfg) != net::RendezvousStatus::kOk)
    return false;
  fabric.set_peers(std::move(peers));
  return true;
}

ClusterStats run_socket_wall(const wall::TileGeometry& geo, int k,
                             std::span<const uint8_t> es,
                             const TileDisplayFn& on_display,
                             SocketWallOptions opts) {
  const proto::Topology topo{k, geo.tiles()};
  const int n = topo.nodes();

  // Telemetry sideband: this process hosts every node, so one exporter
  // announces them all and ships the shared registry + tracer.
  std::vector<uint16_t> hosted;
  for (int node = 0; node < n; ++node) hosted.push_back(uint16_t(node));
  const std::unique_ptr<obs::TelemetryExporter> telemetry =
      start_telemetry(opts, topo, std::move(hosted));

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
  for (int node = 0; node < n; ++node) {
    sockets.push_back(std::make_unique<net::SocketFabric>(
        node, n,
        net::SocketFabricConfig{.metrics = opts.metrics,
                                .injector = opts.injector}));
    fabrics.push_back(sockets.back().get());
  }

  ClusterStats stats =
      run_wall(geo, k, es, on_display, opts, fabrics, [&](int node) {
        PDW_CHECK(join_wall(*sockets[size_t(node)], rv.endpoint(), rv_cfg))
            << " node " << node << " rendezvous timeout";
      });
  PDW_CHECK(rv.result() == net::RendezvousStatus::kOk)
      << " rendezvous listener timed out";
  if (telemetry) telemetry->stop();  // final flush + Bye, after all spans
  return stats;
}

}  // namespace pdw::core
