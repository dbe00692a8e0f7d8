#include "core/wall_runner.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/hosts.h"
#include "core/root_splitter.h"

namespace pdw::core {

ClusterStats run_wall(const wall::TileGeometry& geo, int k,
                      std::span<const uint8_t> es,
                      const TileDisplayFn& on_display,
                      const WallOptions& opts,
                      std::span<net::FabricBackend* const> fabrics,
                      const NodeBringUp& bring_up) {
  PDW_CHECK_GE(k, 1);
  const int tiles = geo.tiles();
  const proto::Topology topo{k, tiles};
  const int n = topo.nodes();
  PDW_CHECK_EQ(int(fabrics.size()), n);
  std::vector<net::FabricBackend*> distinct(fabrics.begin(), fabrics.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  RootSplitter root(es);
  const int total_pictures = root.picture_count();
  const ProtocolConfig& cfg = opts.protocol;
  std::mutex display_mu;
  HostShared shared;
  shared.ep_stats.resize(size_t(n));
  shared.acct.reset(n);
  if (opts.per_picture_exchange) shared.acct.per_picture_tiles = tiles;

  WallTimer timer;
  prewarm_wire_pool(root, topo);
  for (int node = 0; node < n; ++node)
    post_initial_credits(*fabrics[size_t(node)], topo, node);

  auto start_node = [&](int node, auto host_body) {
    return std::thread([&, node, host_body] {
      if (bring_up) bring_up(node);
      host_body(fabrics[size_t(node)]);
    });
  };
  std::thread root_thread =
      start_node(topo.root(), [&](net::FabricBackend* f) {
        proto::RootNode::Options ro;
        ro.heartbeat_timeout_s = cfg.heartbeat_timeout_s;
        ro.recovery = opts.recovery;
        ro.adaptive = opts.adaptive;
        ro.adaptive.geo = &geo;
        RootHost host(f, &shared, &timer, &root, topo, cfg.reliable, ro,
                      opts.metrics);
        host.run();
      });
  std::vector<std::thread> node_threads;
  for (int s = 0; s < k; ++s)
    node_threads.push_back(
        start_node(topo.splitter(s), [&, s](net::FabricBackend* f) {
          SplitterHost host(f, &shared, topo, s, cfg.reliable, geo,
                            root.stream_info(), opts.metrics,
                            opts.adaptive.enabled);
          host.run();
        }));
  for (int t = 0; t < tiles; ++t)
    node_threads.push_back(
        start_node(topo.decoder(t), [&, t](net::FabricBackend* f) {
          proto::DecoderNode::Options dopts;
          dopts.heartbeat_interval_s = cfg.heartbeat_interval_s;
          dopts.total_pictures = uint32_t(total_pictures);
          DecoderHost host(f, &shared, &timer, topo, t, cfg.reliable, geo,
                           root.stream_info(), on_display, &display_mu,
                           dopts, opts.metrics);
          host.run(uint32_t(total_pictures));
        }));

  // Decoders stay resident (t-acking) after finishing, so completion is
  // signalled by a counter rather than join: every decoder thread counts
  // itself done exactly once, whether it finished the stream or was killed.
  while (shared.decoders_done.load(std::memory_order_acquire) < tiles)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  shared.root_stop.store(true);
  root_thread.join();
  // The root consumed every finished notice before exiting; what remains in
  // flight is the tail of transport acks. Give those a bounded window to be
  // consumed so shutdown discards nothing (keeps traffic accounting
  // conserved); fault-delayed or genuinely lost messages may never drain.
  auto quiescent = [&] {
    return std::all_of(distinct.begin(), distinct.end(),
                       [](const net::FabricBackend* f) {
                         return f->quiescent();
                       });
  };
  const auto drain_start = std::chrono::steady_clock::now();
  while (!quiescent() &&
         std::chrono::steady_clock::now() - drain_start <
             std::chrono::milliseconds(250))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (net::FabricBackend* f : distinct) f->shutdown();
  for (std::thread& th : node_threads) th.join();

  ClusterStats stats;
  stats.pictures = total_pictures;
  stats.wall_seconds = timer.seconds();
  stats.fps = double(total_pictures) / stats.wall_seconds;
  stats.nodes = n;
  // Every send is counted at its sender, so each node's own fabric holds its
  // full send row: one shared Fabric and per-node socket fabrics (each with
  // only its local view) yield the same matrix.
  stats.traffic_matrix.reset(n);
  for (int src = 0; src < n; ++src) {
    const net::FabricBackend& f = *fabrics[size_t(src)];
    const TrafficMatrix local = f.traffic_matrix();
    for (int dst = 0; dst < n; ++dst)
      stats.traffic_matrix.at(src, dst) = local.at(src, dst);
    stats.node_counters.push_back(f.counters(src));
  }
  for (const net::ReliableStats& s : shared.ep_stats)
    accumulate_transport(&stats.ft.transport, s);
  stats.ft.degraded_frames = shared.degraded.load();
  stats.ft.skipped_pictures = shared.skipped.load();
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    stats.ft.recoveries = shared.recoveries;
  }
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    stats.wire = std::move(shared.acct);
  }
  // Control-plane overhead (heartbeat bytes) as a registry family, so a
  // live dashboard sees it without digging into WireAccounting.
  obs::registry_or_global(opts.metrics)
      .counter(obs::family::kControlBytes)
      .add(stats.wire.control.total());
  return stats;
}

}  // namespace pdw::core
