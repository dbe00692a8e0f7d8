#include "mpeg2/conceal.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace pdw::mpeg2 {

uint8_t conceal_fill_value(const PictureCodingExt& pce) {
  const int dc = pce.dc_reset_value() * pce.intra_dc_mult();
  const int v = (dc + 4) >> 3;
  return uint8_t(std::clamp(v, 0, 255));
}

void ConcealPlanner::begin(int mb_width, int mb_height,
                           const PictureCodingExt& pce) {
  PDW_CHECK_GT(mb_width, 0);
  PDW_CHECK_GT(mb_height, 0);
  mb_width_ = mb_width;
  covered_count_ = 0;
  fill_ = conceal_fill_value(pce);
  covered_.assign(size_t(mb_width) * mb_height, false);
}

void ConcealPlanner::mark(int addr) {
  PDW_CHECK_GE(addr, 0);
  PDW_CHECK_LT(addr, int(covered_.size()));
  if (!covered_[addr]) {
    covered_[addr] = true;
    ++covered_count_;
  }
}

std::vector<ConcealSpec> ConcealPlanner::finish() const {
  std::vector<ConcealSpec> specs;
  for (size_t addr = 0; addr < covered_.size(); ++addr) {
    if (covered_[addr]) continue;
    ConcealSpec s;
    s.mb_x = int(addr) % mb_width_;
    s.mb_y = int(addr) / mb_width_;
    s.fill_y = s.fill_cb = s.fill_cr = fill_;
    specs.push_back(s);
  }
  return specs;
}

void conceal_mb(PicType type, const RefSource* fwd, const ConcealSpec& spec,
                MacroblockPixels* out) {
  if (type != PicType::I && fwd != nullptr) {
    // Zero-MV full-pel copy from the forward reference: exactly the
    // macroblock's own footprint, never out of picture, never into a halo.
    uint8_t scratch[RefSource::kScratchBytes];
    for (int c = 0; c < 3; ++c) {
      const int S = c == 0 ? 16 : 8;
      uint8_t* dst = c == 0 ? out->y : (c == 1 ? out->cb : out->cr);
      const RefWindow win =
          fwd->window(c, spec.mb_x * S, spec.mb_y * S, S, S, scratch);
      for (int r = 0; r < S; ++r)
        std::memcpy(dst + r * S, win.data + size_t(r) * win.stride, size_t(S));
    }
    return;
  }
  std::memset(out->y, spec.fill_y, sizeof(out->y));
  std::memset(out->cb, spec.fill_cb, sizeof(out->cb));
  std::memset(out->cr, spec.fill_cr, sizeof(out->cr));
}

}  // namespace pdw::mpeg2
