#include "mpeg2/recon.h"

#include <algorithm>
#include <cstring>

#include "kernels/kernels.h"

namespace pdw::mpeg2 {

namespace {

// Add an 8x8 residual block onto a prediction region (or write it directly
// for intra macroblocks), clamping to [0, 255].
void add_block(const kernels::KernelTable& k, const int16_t* coeff,
               uint8_t* dst, int stride, bool intra) {
  alignas(32) int16_t block[64];
  std::memcpy(block, coeff, sizeof(block));
  k.idct_8x8(block);
  if (intra) {
    k.put_residual_8x8(block, dst, stride);
  } else {
    k.add_residual_8x8(block, dst, stride);
  }
}

}  // namespace

void reconstruct_mb(const Macroblock& mb, const RefSource* fwd,
                    const RefSource* bwd, int mbx, int mby,
                    MacroblockPixels* out) {
  const bool intra = mb.intra();
  if (!intra) {
    motion_compensate(mb, fwd, bwd, mbx, mby, out);
    if (mb.cbp == 0) return;  // pure prediction (skipped / not-coded)
  }

  // Luma blocks 0..3 tile the 16x16 region; block 4 = Cb, block 5 = Cr.
  const kernels::KernelTable& k = kernels::active();
  for (int b = 0; b < 4; ++b) {
    if (!(mb.cbp & (0x20 >> b))) continue;
    const int bx = (b & 1) * 8;
    const int by = (b >> 1) * 8;
    add_block(k, mb.coeff[b], out->y + by * 16 + bx, 16, intra);
  }
  if (mb.cbp & 0x02) add_block(k, mb.coeff[4], out->cb, 8, intra);
  if (mb.cbp & 0x01) add_block(k, mb.coeff[5], out->cr, 8, intra);

  // Intra blocks always have cbp 0x3F, so nothing is left unwritten; for
  // non-intra macroblocks uncoded blocks keep the prediction.
}

namespace {

// Offsets of macroblock (mbx, mby)'s top-left luma and chroma samples in
// `frame`, after one check that the macroblock lies inside it.
struct MbOffsets {
  size_t y, c;
};
MbOffsets mb_offsets(const Frame& frame, int mbx, int mby) {
  PDW_CHECK(mbx >= 0 && mby >= 0 && (mbx + 1) * 16 <= frame.width() &&
            (mby + 1) * 16 <= frame.height())
      << "macroblock (" << mbx << "," << mby << ") outside the frame";
  return {size_t(mby) * 16 * size_t(frame.y.width()) + size_t(mbx) * 16,
          size_t(mby) * 8 * size_t(frame.cb.width()) + size_t(mbx) * 8};
}

}  // namespace

void store_mb(Frame* frame, int mbx, int mby, const MacroblockPixels& px) {
  const MbOffsets o = mb_offsets(*frame, mbx, mby);
  copy_mb_in(px, frame->y.base() + o.y, frame->y.width(),
             frame->cb.base() + o.c, frame->cr.base() + o.c,
             frame->cb.width());
}

MacroblockPixels load_mb(const Frame& frame, int mbx, int mby) {
  const MbOffsets o = mb_offsets(frame, mbx, mby);
  MacroblockPixels px;
  copy_mb_out(frame.y.base() + o.y, frame.y.width(), frame.cb.base() + o.c,
              frame.cr.base() + o.c, frame.cb.width(), &px);
  return px;
}

}  // namespace pdw::mpeg2
