// CPU-feature-dispatched kernels for the codec hot paths.
//
// Every per-pixel inner loop of the decode and encode paths — 8x8 IDCT,
// half-pel interpolation, bidirectional averaging, residual add/saturate,
// and the encoder's SAD — lives behind one function-pointer table.
// Dequantisation is not a kernel: a coded block holds about five nonzero
// coefficients (EXPERIMENTS.md, "One pass from bits to coefficients"), so
// the macroblock parser dequantises each one as it decodes it
// (mpeg2/mb_parser.h) instead of running a dense 64-lane pass.
//
// The table is filled at startup with the best implementation the running
// CPU supports (scalar reference, SSE2, or AVX2), so the serial decoder, the
// tile decoders, the encoder and the slice-parallel baseline all share the
// same selected kernels.
//
// Bit-exactness contract (DESIGN.md §5.1 invariant 1): every implementation
// of every kernel produces byte-identical output to the scalar reference for
// all inputs within the documented domain. The SIMD paths achieve this by
// vectorising the *same* fixed-point arithmetic lane-parallel, not by
// substituting a different factorization; tests/test_kernels.cpp fuzzes the
// equivalence, and the parallel-vs-serial wall composition invariant holds
// under any dispatch level.
//
// Selection override (testing / benchmarking): set PDW_KERNELS=scalar|sse2|
// avx2 in the environment before first use, or call set_active_level().
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdw::kernels {

enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };
inline constexpr int kLevelCount = 3;

const char* level_name(Level level);

struct KernelTable {
  Level level;
  const char* name;

  // In-place 8x8 IDCT (same arithmetic as the classic 32-bit fixed-point
  // row/column Wang factorization). Input: dequantised coefficients in
  // raster order; output: spatial residuals clamped to [-256, 255].
  void (*idct_8x8)(int16_t block[64]);

  // Half-pel interpolation (§7.6 prediction filtering) of a size x size
  // block (size is 8 or 16). `src` must have (size+hx) x (size+hy) valid
  // samples; hx/hy are the half-sample flags in {0, 1}.
  void (*interp_halfpel)(const uint8_t* src, int src_stride, uint8_t* dst,
                         int dst_stride, int size, int hx, int hy);

  // p[i] = (p[i] + q[i] + 1) >> 1 for i in [0, n) — bidirectional averaging.
  void (*avg_pixels)(uint8_t* p, const uint8_t* q, size_t n);

  // dst[r][c] = clamp(dst[r][c] + res[r*8+c], 0, 255): add an IDCT residual
  // onto a prediction. Implementations may assume |res| <= 8192 (the IDCT
  // emits [-256, 255]).
  void (*add_residual_8x8)(const int16_t res[64], uint8_t* dst, int stride);

  // dst[r][c] = clamp(res[r*8+c], 0, 255): intra block store.
  void (*put_residual_8x8)(const int16_t res[64], uint8_t* dst, int stride);

  // 16x16 sum of absolute differences with threshold semantics: returns the
  // SAD if it is < best, otherwise UINT32_MAX (callers use it as a pruned
  // candidate search, so "too big" needs no exact value).
  uint32_t (*sad16x16)(const uint8_t* a, int a_stride, const uint8_t* b,
                       int b_stride, uint32_t best);

  // 16x16 SAD of `a` against the half-pel interpolation of `b` (which must
  // have (16+hx) x (16+hy) valid samples). Always exact (no threshold).
  uint32_t (*sad16x16_halfpel)(const uint8_t* a, int a_stride,
                               const uint8_t* b, int b_stride, int hx,
                               int hy);
};

// The active table. First use selects the best level the CPU supports,
// unless PDW_KERNELS names a (supported) level. Cheap: one atomic load.
const KernelTable& active();

Level active_level();

// The table for a specific level, or nullptr if that level is unavailable
// (not compiled in, or the CPU lacks the feature). kScalar never fails.
// Used by equivalence tests and per-level benchmarks.
const KernelTable* table_for(Level level);

inline bool level_supported(Level level) { return table_for(level) != nullptr; }

Level best_supported_level();

// Force a dispatch level (tests / benches). Returns false and leaves the
// active table unchanged if the level is unsupported on this host. Not
// intended to be called concurrently with decoding threads.
bool set_active_level(Level level);

}  // namespace pdw::kernels
