// The one in-process wall runner behind ClusterPipeline (core/pipeline.h)
// and run_socket_wall (core/socket_wall.h). It owns everything the two
// engines share: one WallContext, pool prewarm, initial credits, one thread
// per node running core::run_node (core/hosts.h), the completion wait, the
// bounded quiescence drain, shutdown and the ClusterStats. The engines only
// differ in the fabric each node talks over and in how a node is brought up
// before its host starts. wall_node (examples/wall_node.cpp) calls the same
// run_node, one node per process.
#pragma once

#include <functional>
#include <span>

#include "core/pipeline.h"

namespace pdw::core {

// Runs on a node's own thread before its host starts (a socket wall joins
// the rendezvous and installs its peer map here).
using NodeBringUp = std::function<void(int node)>;

// Node i talks over fabrics[i]; nodes sharing one in-process Fabric pass the
// same pointer for every node.
ClusterStats run_wall(const wall::TileGeometry& geo, int k,
                      std::span<const uint8_t> es,
                      const TileDisplayFn& on_display,
                      const WallOptions& opts,
                      std::span<net::FabricBackend* const> fabrics,
                      const NodeBringUp& bring_up = nullptr);

}  // namespace pdw::core
