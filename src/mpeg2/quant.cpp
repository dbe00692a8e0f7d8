#include "mpeg2/quant.h"

#include <algorithm>

namespace pdw::mpeg2 {

void dequant_intra(const int16_t qfs[64], int16_t out[64], const uint8_t w[64],
                   int scale, int dc_mult, const uint8_t scan[64]) {
  std::fill_n(out, 64, int16_t(0));
  out[0] = dequant_dc(qfs[0], dc_mult);
  int32_t sum = out[0];
  for (int i = 1; i < 64; ++i) {
    if (qfs[i] == 0) continue;
    const int pos = scan[i];
    out[pos] = dequant_ac(qfs[i], w[pos], scale, /*intra=*/true);
    sum += out[pos];
  }
  mismatch_control(out, sum);
}

void dequant_non_intra(const int16_t qfs[64], int16_t out[64],
                       const uint8_t w[64], int scale,
                       const uint8_t scan[64]) {
  std::fill_n(out, 64, int16_t(0));
  int32_t sum = 0;
  for (int i = 0; i < 64; ++i) {
    if (qfs[i] == 0) continue;
    const int pos = scan[i];
    out[pos] = dequant_ac(qfs[i], w[pos], scale, /*intra=*/false);
    sum += out[pos];
  }
  mismatch_control(out, sum);
}

int quant_intra(const int16_t coeff[64], int16_t qfs[64], const uint8_t w[64],
                int scale, int dc_mult, const uint8_t scan[64]) {
  // DC: F = dc_mult * QF  =>  QF = round(F / dc_mult), clamped to the range
  // reachable with dct_dc_size <= 11.
  const int32_t dc_limit = (1 << 11) - 1;
  int32_t dc = (coeff[0] + (coeff[0] >= 0 ? dc_mult / 2 : -dc_mult / 2)) / dc_mult;
  qfs[0] = int16_t(std::clamp(dc, -dc_limit, dc_limit));

  int last = 0;
  for (int i = 1; i < 64; ++i) {
    const int pos = scan[i];
    const int32_t f = coeff[pos];
    const int32_t den = 2 * w[pos] * scale;
    // Inverse of F = 2*QF*W*scale/32: QF = round(32*F / (2*W*scale)).
    int32_t qf = (32 * std::abs(f) + den / 2) / den;
    if (f < 0) qf = -qf;
    qf = std::clamp(qf, -2047, 2047);
    qfs[i] = int16_t(qf);
    if (qf != 0) last = i;
  }
  return last;
}

int quant_non_intra(const int16_t coeff[64], int16_t qfs[64],
                    const uint8_t w[64], int scale, const uint8_t scan[64]) {
  int last = -1;
  for (int i = 0; i < 64; ++i) {
    const int pos = scan[i];
    const int32_t f = coeff[pos];
    const int32_t den = 2 * w[pos] * scale;
    // Dead-zone quantiser, inverse of F = (2*QF + sign)*W*scale/32.
    int32_t qf = (32 * std::abs(f)) / den;
    if (f < 0) qf = -qf;
    qf = std::clamp(qf, -2047, 2047);
    qfs[i] = int16_t(qf);
    if (qf != 0) last = i;
  }
  return last;
}

}  // namespace pdw::mpeg2
