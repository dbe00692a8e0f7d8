#include "core/pipeline.h"

#include <vector>

#include "core/wall_runner.h"

namespace pdw::core {

ClusterPipeline::ClusterPipeline(const wall::TileGeometry& geo, int k,
                                 std::span<const uint8_t> es,
                                 WallOptions opts)
    : geo_(geo),
      k_(k),
      topo_{k, geo.tiles()},
      es_(es),
      opts_(std::move(opts)) {
  PDW_CHECK_GE(k, 1);
}

ClusterStats ClusterPipeline::run(const TileDisplayFn& on_display) {
  // Every node thread shares the one in-process fabric.
  net::Fabric fabric(nodes());
  fabric.set_fault_injector(opts_.injector);
  const std::vector<net::FabricBackend*> per_node(size_t(nodes()), &fabric);
  return run_wall(geo_, k_, es_, on_display, opts_, per_node);
}

}  // namespace pdw::core
