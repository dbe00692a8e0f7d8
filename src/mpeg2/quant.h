// Inverse quantisation (§7.4) and the encoder-side forward quantiser.
//
// Decode-side arithmetic follows ISO/IEC 13818-2 exactly (including
// saturation and mismatch control) because both the serial reference decoder
// and the tile decoders share it — any deviation would still be internally
// consistent, but we keep it conformant so third-party streams in scope
// (MP, 4:2:0, frame pictures) decode correctly.
#pragma once

#include <algorithm>
#include <cstdint>

#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// --- §7.4 arithmetic, one coefficient at a time ----------------------------
//
// The macroblock parser applies these to each nonzero coefficient as it
// decodes it; dequant_intra/dequant_non_intra below apply them to a whole
// QFS block. Both therefore produce the same F[v][u] by construction.

// Intra DC (§7.4.1): F = intra_dc_mult * QF, saturated (§7.4.3).
inline int16_t dequant_dc(int16_t qf, int dc_mult) {
  return int16_t(std::clamp(dc_mult * int32_t(qf), -2048, 2047));
}

// One nonzero coefficient at a raster position of weight `w` (§7.4.2.3):
// intra AC F = 2*QF*W*scale/32, non-intra adds the +/-1 "third" term;
// saturated (§7.4.3).
inline int16_t dequant_ac(int32_t qf, int w, int scale, bool intra) {
  const int32_t k = intra ? 0 : (qf > 0 ? 1 : -1);
  return int16_t(std::clamp(((2 * qf + k) * w * scale) / 32, -2048, 2047));
}

// §7.4.4 mismatch control: if the sum of all saturated coefficients is even,
// toggle the least significant bit of F[7][7].
inline void mismatch_control(int16_t f[64], int32_t sum) {
  if ((sum & 1) == 0) f[63] = int16_t(f[63] & 1 ? f[63] - 1 : f[63] + 1);
}

// --- Whole blocks (encoder reconstruction; tests' reference) ---------------

// Dequantise an intra block.
//   qfs:   quantised coefficients in *scan* order (QFS)
//   out:   dequantised coefficients in *raster* order
//   w:     intra quantiser matrix, raster order
//   scale: quantiser_scale (already mapped from the 5-bit code)
//   dc_mult: 8 >> intra_dc_precision
//   scan:  scan-index -> raster-position table
void dequant_intra(const int16_t qfs[64], int16_t out[64], const uint8_t w[64],
                   int scale, int dc_mult, const uint8_t scan[64]);

// Dequantise a non-intra block (adds the +/-1 "third" term, §7.4.2.3).
void dequant_non_intra(const int16_t qfs[64], int16_t out[64],
                       const uint8_t w[64], int scale,
                       const uint8_t scan[64]);

// --- Encoder side ----------------------------------------------------------

// Quantise an intra block: coefficients (raster) -> QFS (scan order).
// Returns the index of the last nonzero scan coefficient, or 0 if only DC.
int quant_intra(const int16_t coeff[64], int16_t qfs[64], const uint8_t w[64],
                int scale, int dc_mult, const uint8_t scan[64]);

// Quantise a non-intra block. Returns the last nonzero scan index, or -1 if
// the block quantises to all zeros (block then not coded).
int quant_non_intra(const int16_t coeff[64], int16_t qfs[64],
                    const uint8_t w[64], int scale, const uint8_t scan[64]);

}  // namespace pdw::mpeg2
