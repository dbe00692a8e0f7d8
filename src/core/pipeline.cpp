#include "core/pipeline.h"

#include <vector>

#include "core/wall_runner.h"

namespace pdw::core {

ClusterPipeline::ClusterPipeline(const wall::TileGeometry& geo, int k,
                                 std::span<const uint8_t> es, FtOptions ft)
    : geo_(geo), k_(k), topo_{k, geo.tiles()}, es_(es), ft_(std::move(ft)) {
  PDW_CHECK_GE(k, 1);
}

ClusterStats ClusterPipeline::run(const TileDisplayFn& on_display) {
  // Every node thread shares the one in-process fabric.
  net::Fabric fabric(nodes());
  if (ft_.injector) fabric.set_fault_injector(ft_.injector);
  const std::vector<net::FabricBackend*> per_node(size_t(nodes()), &fabric);
  return run_wall(geo_, k_, es_, on_display, ft_, per_node);
}

}  // namespace pdw::core
