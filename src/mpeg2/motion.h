// Motion-compensated prediction (§7.6): frame prediction with half-sample
// interpolation, forward / backward / bidirectional.
//
// Reference pixels are obtained through the RefSource abstraction so the
// same arithmetic serves two very different memory layouts:
//   * the serial decoder reads straight out of full reference Frames;
//   * a tile decoder reads from its tile-local reference region plus the
//     halo of remote macroblocks delivered by MEI exchanges (paper §4.2).
// Identical arithmetic over identical pixels is what makes parallel and
// serial reconstruction bit-exact.
#pragma once

#include "mpeg2/frame.h"
#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// A reference window: `data` points at its top-left sample and its rows lie
// `stride` bytes apart.
struct RefWindow {
  const uint8_t* data = nullptr;
  int stride = 0;
};

class RefSource {
 public:
  // Scratch a source may gather a window into: up to 17 x 17 samples (a
  // half-pel luma window), rows kScratchStride bytes apart.
  static constexpr int kScratchStride = 17;
  static constexpr int kScratchBytes = 17 * 17;

  virtual ~RefSource() = default;

  // The reference window of plane c (0=Y, 1=Cb, 2=Cr): top-left global
  // coordinate (x, y) in that plane's resolution, size w x h (each at most
  // 17). The window is guaranteed to lie inside the picture (MPEG-2 motion
  // vectors may not reference out-of-picture samples). A source that holds
  // the window contiguously answers in place; otherwise it gathers the
  // window into `scratch` and answers with that. The pixels stay valid
  // while the reference frame and the scratch do.
  virtual RefWindow window(int c, int x, int y, int w, int h,
                           uint8_t* scratch) const = 0;
};

// RefSource over a full decoded Frame (serial decoder): always in place.
class FrameRefSource final : public RefSource {
 public:
  explicit FrameRefSource(const Frame& frame) : frame_(&frame) {}
  RefWindow window(int c, int x, int y, int w, int h,
                   uint8_t* scratch) const override;

 private:
  const Frame* frame_;
};

// Motion-compensate one macroblock at (mbx, mby) into `pred`. Uses mb.mv and
// mb.flags: forward-only, backward-only, or averaged bidirectional. The
// macroblock must have at least one prediction direction.
void motion_compensate(const Macroblock& mb, const RefSource* fwd,
                       const RefSource* bwd, int mbx, int mby,
                       MacroblockPixels* pred);

// The luma-plane source window (in pixels) that predicting direction s of
// this macroblock will read: x in [x0, x1), y in [y0, y1). Used both by MC
// itself and by the splitter's MEI pre-calculation.
struct SrcWindow {
  int x0, y0, x1, y1;
};
SrcWindow luma_source_window(const Macroblock& mb, int s, int mbx, int mby);

}  // namespace pdw::mpeg2
