// Executable slice-level parallel decoder (the paper's §3 "slice level"
// baseline, built for real rather than modeled).
//
// T = m*n decoders each decode one horizontal *band* of grouped slices
// (bands have start codes, so splitting is cheap and needs no SPH), then
// redistribute decoded pixels: each band decoder drives one projector tile,
// so it keeps the intersection of its band with its own tile and ships the
// rest — the "(m-1)/m of a slice" (and more, vertically) the paper charges
// this design with. Remote-reference traffic between bands uses the same
// MEI machinery as the macroblock system.
//
// Output is bit-exact with the serial decoder; what differs from the
// hierarchical system is the communication profile, which this class
// reports so Table 1 can be measured instead of estimated.
#pragma once

#include <functional>

#include "core/lockstep.h"
#include "wall/geometry.h"

namespace pdw::baseline {

struct SlicePipelineStats {
  int pictures = 0;
  // Decoded-pixel bytes shipped between nodes for display, per picture
  // (the redistribution column of Table 1).
  double redistribution_bytes_per_picture = 0;
  // Remote-reference (halo) bytes exchanged between band decoders.
  double reference_exchange_bytes_per_picture = 0;
  // For comparison: the fraction of decoded pixels each node keeps.
  double kept_fraction = 0;
};

class SlicePipeline {
 public:
  // `display` is the projector wall; bands are the horizontal decode
  // partition with one band per tile. Requires mb_height >= tiles.
  SlicePipeline(const wall::TileGeometry& display,
                std::span<const uint8_t> es);

  using TileDisplayFn = std::function<void(
      int tile, const mpeg2::TileFrame&, const core::TileDisplayInfo&)>;

  // Decode the stream; emits one display-tile frame per tile per picture
  // (in display order) and returns the communication statistics.
  SlicePipelineStats run(const TileDisplayFn& on_display);

 private:
  const wall::TileGeometry& display_;
  wall::TileGeometry bands_;
  std::span<const uint8_t> es_;
};

}  // namespace pdw::baseline
