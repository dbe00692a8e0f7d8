#include "mpeg2/frame.h"

#include <cmath>

namespace pdw::mpeg2 {

double psnr(const Plane& a, const Plane& b) {
  PDW_CHECK_EQ(a.width(), b.width());
  PDW_CHECK_EQ(a.height(), b.height());
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    const uint8_t* pa = a.row(y);
    const uint8_t* pb = b.row(y);
    for (int x = 0; x < a.width(); ++x) {
      const double d = double(pa[x]) - double(pb[x]);
      sse += d * d;
    }
  }
  if (sse == 0.0) return 99.0;
  const double mse = sse / (double(a.width()) * a.height());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

MacroblockPixels TileFrame::extract_mb(int mbx, int mby) const {
  PDW_CHECK(contains_mb(mbx, mby));
  const size_t x = size_t(mbx - mb_x0_), y = size_t(mby - mb_y0_);
  const size_t yw = size_t(y_.width()), cw = size_t(cb_.width());
  MacroblockPixels out;
  copy_mb_out(y_.base() + y * 16 * yw + x * 16, int(yw),
              cb_.base() + y * 8 * cw + x * 8, cr_.base() + y * 8 * cw + x * 8,
              int(cw), &out);
  return out;
}

void TileFrame::insert_mb(int mbx, int mby, const MacroblockPixels& px) {
  PDW_CHECK(contains_mb(mbx, mby));
  const size_t x = size_t(mbx - mb_x0_), y = size_t(mby - mb_y0_);
  const size_t yw = size_t(y_.width()), cw = size_t(cb_.width());
  copy_mb_in(px, y_.base() + y * 16 * yw + x * 16, int(yw),
             cb_.base() + y * 8 * cw + x * 8, cr_.base() + y * 8 * cw + x * 8,
             int(cw));
}

}  // namespace pdw::mpeg2
