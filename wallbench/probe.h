// Per-layer probe: a single-thread replay of one workload's input through
// each layer's public functions, with the benchmark's own spans around every
// call it makes. The spans are recorded into a caller-owned obs::Tracer, one
// Perfetto process per layer, and the per-layer timings are read back from
// them.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "obs/trace.h"
#include "wall/geometry.h"

namespace wallbench {

struct ProbeResult {
  double root_scan_us_per_pic = 0;
  double split_ms_per_pic = 0;
  double split_out_in_ratio = 0;
  double split_exchange_pairs_per_pic = 0;
  double tile_decode_ms_per_pic = 0;  // mean over tiles
  double tile_decode_imbalance = 0;   // max over mean of tile busy time
  double tile_serve_ms_per_pic = 0;   // mean over tiles
  double tile_halo_mbs_per_pic = 0;   // mean over tiles
  double wire_pack_us_per_pic = 0;    // all tiles of one picture
  double wire_decode_us_per_pic = 0;
  double net_msg_us = 0;              // SocketFabric send + receive_for
  double net_rendezvous_ms = 0;       // n concurrent rendezvous_join calls
};

// Replay `es` on the wall `geo` (`nodes` = wall nodes, for the rendezvous).
// `tracer` must be enabled and must hold no other probe's spans.
ProbeResult run_probe(std::span<const uint8_t> es,
                      const pdw::wall::TileGeometry& geo, int nodes,
                      pdw::obs::Tracer* tracer);

// Perfetto process name of a probe span's pid (for write_chrome_trace).
std::string probe_lane_name(int pid);

}  // namespace wallbench
