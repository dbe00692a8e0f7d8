#include "mpeg2/motion.h"

#include "kernels/kernels.h"

namespace pdw::mpeg2 {

RefWindow FrameRefSource::window(int c, int x, int y, int w, int h,
                                 uint8_t*) const {
  const Plane& p = frame_->plane(c);
  PDW_CHECK_GE(x, 0);
  PDW_CHECK_GE(y, 0);
  PDW_CHECK_LE(x + w, p.width());
  PDW_CHECK_LE(y + h, p.height());
  return {p.row(y) + x, p.width()};
}

namespace {

// Predict all three planes of one macroblock for direction s.
void predict_one_direction(const Macroblock& mb, int s, const RefSource* ref,
                           int mbx, int mby, MacroblockPixels* out) {
  PDW_CHECK(ref != nullptr) << "missing reference for prediction";
  uint8_t scratch[RefSource::kScratchBytes];

  for (int c = 0; c < 3; ++c) {
    const int S = c == 0 ? 16 : 8;
    // Chroma vectors are the luma vector divided by two, truncating toward
    // zero (§7.6.3.7 for 4:2:0 frame prediction).
    const int mvx = c == 0 ? mb.mv[s][0] : mb.mv[s][0] / 2;
    const int mvy = c == 0 ? mb.mv[s][1] : mb.mv[s][1] / 2;
    const int hx = mvx & 1;
    const int hy = mvy & 1;
    const int x = S * mbx + (mvx >> 1);
    const int y = S * mby + (mvy >> 1);
    // interp_halfpel reads exactly (S + hx) x (S + hy) samples, so an
    // in-place window never reads outside the reference plane.
    const RefWindow win = ref->window(c, x, y, S + hx, S + hy, scratch);
    uint8_t* dst = c == 0 ? out->y : (c == 1 ? out->cb : out->cr);
    kernels::active().interp_halfpel(win.data, win.stride, dst, S, S, hx, hy);
  }
}

}  // namespace

void motion_compensate(const Macroblock& mb, const RefSource* fwd,
                       const RefSource* bwd, int mbx, int mby,
                       MacroblockPixels* pred) {
  const bool f = mb.has_fwd() || !mb.has_bwd();  // P "No MC" predicts forward
  const bool b = mb.has_bwd();
  if (f && b) {
    MacroblockPixels back;
    predict_one_direction(mb, 0, fwd, mbx, mby, pred);
    predict_one_direction(mb, 1, bwd, mbx, mby, &back);
    const auto& k = kernels::active();
    k.avg_pixels(pred->y, back.y, sizeof(pred->y));
    k.avg_pixels(pred->cb, back.cb, sizeof(pred->cb));
    k.avg_pixels(pred->cr, back.cr, sizeof(pred->cr));
  } else if (b) {
    predict_one_direction(mb, 1, bwd, mbx, mby, pred);
  } else {
    predict_one_direction(mb, 0, fwd, mbx, mby, pred);
  }
}

SrcWindow luma_source_window(const Macroblock& mb, int s, int mbx, int mby) {
  const int mvx = mb.mv[s][0];
  const int mvy = mb.mv[s][1];
  SrcWindow w;
  w.x0 = 16 * mbx + (mvx >> 1);
  w.y0 = 16 * mby + (mvy >> 1);
  w.x1 = w.x0 + 16 + (mvx & 1);
  w.y1 = w.y0 + 16 + (mvy & 1);
  return w;
}

}  // namespace pdw::mpeg2
