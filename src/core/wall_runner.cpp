#include "core/wall_runner.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/hosts.h"

namespace pdw::core {

ClusterStats run_wall(const wall::TileGeometry& geo, int k,
                      std::span<const uint8_t> es,
                      const TileDisplayFn& on_display,
                      const WallOptions& opts,
                      std::span<net::FabricBackend* const> fabrics,
                      const NodeBringUp& bring_up) {
  WallContext ctx(geo, k, es, opts, on_display);
  const proto::Topology& topo = ctx.topo;
  const int n = topo.nodes();
  PDW_CHECK_EQ(int(fabrics.size()), n);
  std::vector<net::FabricBackend*> distinct(fabrics.begin(), fabrics.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  const int total_pictures = ctx.root.picture_count();
  prewarm_wire_pool(ctx.root, topo);
  for (int node = 0; node < n; ++node)
    post_initial_credits(*fabrics[size_t(node)], topo, node);

  std::vector<std::thread> threads;
  for (int node = 0; node < n; ++node)
    threads.emplace_back([&, node] {
      if (bring_up) bring_up(node);
      run_node(ctx, *fabrics[size_t(node)], node);
    });

  // Every host stays resident (t-acking) once done, so completion is a
  // per-node flag rather than a join: each decoder raises its own once,
  // whether it finished the stream or was killed.
  for (int t = 0; t < topo.tiles; ++t) ctx.wait_done(topo.decoder(t));
  ctx.root_stop.store(true);
  ctx.wait_done(topo.root());
  // The root consumed every finished notice; what remains in flight is the
  // tail of transport acks. Give those a bounded window to be consumed so
  // shutdown discards nothing (keeps traffic accounting conserved);
  // fault-delayed or genuinely lost messages may never drain.
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
  for (std::thread& th : threads) th.join();

  ClusterStats stats;
  stats.pictures = total_pictures;
  stats.wall_seconds = ctx.timer.seconds();
  stats.fps = double(total_pictures) / stats.wall_seconds;
  stats.nodes = n;
  // Every send is counted at its sender, so each node's own fabric holds its
  // full send row: one shared Fabric and per-node socket fabrics (each with
  // only its local view) yield the same matrix.
  stats.traffic_matrix.reset(n);
  for (int src = 0; src < n; ++src) {
    const TrafficMatrix local = fabrics[size_t(src)]->traffic_matrix();
    for (int dst = 0; dst < n; ++dst)
      stats.traffic_matrix.at(src, dst) = local.at(src, dst);
  }
  for (const net::ReliableStats& s : ctx.ep_stats)
    accumulate_transport(&stats.ft.transport, s);
  stats.ft.degraded_frames = ctx.degraded.load();
  stats.ft.skipped_pictures = ctx.skipped.load();
  {
    std::lock_guard<std::mutex> lock(ctx.mu);
    stats.ft.recoveries = ctx.recoveries;
  }
  {
    std::lock_guard<std::mutex> lock(ctx.acct_mu);
    stats.wire = std::move(ctx.acct);
  }
  // Control-plane overhead (heartbeat bytes) as a registry family, so a
  // live dashboard sees it without digging into WireAccounting.
  obs::registry_or_global(opts.metrics)
      .counter(obs::family::kControlBytes)
      .add(stats.wire.control.total());
  return stats;
}

}  // namespace pdw::core
