// AVX2 kernel table. This TU is compiled with -mavx2 (scoped to this file in
// CMake); every entry point is only ever reached through the dispatcher,
// which verifies CPU support first. 256-bit versions are provided where the
// wider lanes pay (IDCT, 16-wide quad interpolation, SAD); the rest
// reuses the shared 128-bit implementations, recompiled VEX-encoded here.
#include "kernels/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>
#include <limits>

#include "kernels/idct_butterfly.h"
#include "kernels/kernels_m128_impl.h"
#include "kernels/simd_common.h"

namespace pdw::kernels {
namespace {

// ---------------------------------------------------------------------------
// IDCT: eight int32 lanes in one register.
// ---------------------------------------------------------------------------

struct OpsAvx2 {
  using V = __m256i;
  static V add(V a, V b) { return _mm256_add_epi32(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
  static V shl(V a, int n) { return _mm256_slli_epi32(a, n); }
  static V sra(V a, int n) { return _mm256_srai_epi32(a, n); }
  static V mulc(V a, int32_t c) {
    return _mm256_mullo_epi32(a, _mm256_set1_epi32(c));
  }
  static V splat(int32_t c) { return _mm256_set1_epi32(c); }
  static V trunc16(V a) { return sra(shl(a, 16), 16); }
  static V clamp256(V a) {
    return _mm256_min_epi32(_mm256_max_epi32(a, _mm256_set1_epi32(-256)),
                            _mm256_set1_epi32(255));
  }
};

// Pack eight int32 lanes (known to fit int16) into the low 128 bits.
inline __m128i pack_epi32_to_epi16(__m256i v) {
  const __m256i p = _mm256_packs_epi32(v, v);
  return _mm256_castsi256_si128(_mm256_permute4x64_epi64(p, 0x08));
}

void idct_8x8(int16_t block[64]) {
  __m128i r[8];
  for (int i = 0; i < 8; ++i)
    r[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 8 * i));
  simd::transpose8x8_epi16(r);  // r[k] = coefficient column k
  __m256i v[8];
  for (int k = 0; k < 8; ++k) v[k] = _mm256_cvtepi16_epi32(r[k]);
  idct_rows_vec<OpsAvx2>(v);
  for (int k = 0; k < 8; ++k) r[k] = pack_epi32_to_epi16(v[k]);
  simd::transpose8x8_epi16(r);  // r[j] = row-pass output row j
  for (int j = 0; j < 8; ++j) v[j] = _mm256_cvtepi16_epi32(r[j]);
  idct_cols_vec<OpsAvx2>(v);
  for (int j = 0; j < 8; ++j)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(block + 8 * j),
                     pack_epi32_to_epi16(v[j]));
}

// ---------------------------------------------------------------------------
// Half-pel interpolation: one 16-wide quad-average row in 16 u16 lanes.
// ---------------------------------------------------------------------------

inline __m128i quad_avg16_256(const uint8_t* s0, const uint8_t* s1) {
  const __m256i two = _mm256_set1_epi16(2);
  const __m256i a = _mm256_cvtepu8_epi16(m128::load16(s0));
  const __m256i b = _mm256_cvtepu8_epi16(m128::load16(s0 + 1));
  const __m256i c = _mm256_cvtepu8_epi16(m128::load16(s1));
  const __m256i d = _mm256_cvtepu8_epi16(m128::load16(s1 + 1));
  const __m256i sum = _mm256_add_epi16(_mm256_add_epi16(a, b),
                                       _mm256_add_epi16(c, d));
  const __m256i avg = _mm256_srli_epi16(_mm256_add_epi16(sum, two), 2);
  const __m256i packed = _mm256_packus_epi16(avg, avg);
  return _mm256_castsi256_si128(_mm256_permute4x64_epi64(packed, 0x08));
}

void interp_halfpel(const uint8_t* src, int src_stride, uint8_t* dst,
                    int dst_stride, int size, int hx, int hy) {
  if (size == 16 && hx && hy) {
    for (int r = 0; r < 16; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      m128::store16(dst + size_t(r) * dst_stride,
                    quad_avg16_256(s0, s0 + src_stride));
    }
    return;
  }
  m128::interp_halfpel(src, src_stride, dst, dst_stride, size, hx, hy);
}

void avg_pixels(uint8_t* p, const uint8_t* q, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i),
                        _mm256_avg_epu8(a, b));
  }
  if (i < n) m128::avg_pixels(p + i, q + i, n - i);
}

// ---------------------------------------------------------------------------
// SAD: two rows per 256-bit psadbw.
// ---------------------------------------------------------------------------

inline __m256i load_2rows(const uint8_t* p, int stride) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(m128::load16(p)),
                                 m128::load16(p + stride), 1);
}

uint32_t sad16x16(const uint8_t* a, int a_stride, const uint8_t* b,
                  int b_stride, uint32_t best) {
  __m256i acc = _mm256_setzero_si256();
  for (int r = 0; r < 16; r += 2)
    acc = _mm256_add_epi64(
        acc, _mm256_sad_epu8(load_2rows(a + size_t(r) * a_stride, a_stride),
                             load_2rows(b + size_t(r) * b_stride, b_stride)));
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                  _mm256_extracti128_si256(acc, 1));
  const uint32_t sad = m128::hsum_sad(s);
  return sad < best ? sad : std::numeric_limits<uint32_t>::max();
}

uint32_t sad16x16_halfpel(const uint8_t* a, int a_stride, const uint8_t* b,
                          int b_stride, int hx, int hy) {
  if (!(hx && hy)) return m128::sad16x16_halfpel(a, a_stride, b, b_stride, hx, hy);
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < 16; ++r) {
    const uint8_t* b0 = b + size_t(r) * b_stride;
    const __m128i pred = quad_avg16_256(b0, b0 + b_stride);
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(m128::load16(a + size_t(r) * a_stride), pred));
  }
  return m128::hsum_sad(acc);
}

const KernelTable kTable = {
    .level = Level::kAvx2,
    .name = "avx2",
    .idct_8x8 = idct_8x8,
    .interp_halfpel = interp_halfpel,
    .avg_pixels = avg_pixels,
    .add_residual_8x8 = m128::add_residual_8x8,
    .put_residual_8x8 = m128::put_residual_8x8,
    .sad16x16 = sad16x16,
    .sad16x16_halfpel = sad16x16_halfpel,
};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace pdw::kernels

#else  // !__AVX2__

namespace pdw::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace pdw::kernels

#endif
