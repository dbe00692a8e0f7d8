// 128-bit (SSE2-instruction-set) implementations of every kernel, as
// inline functions. Included by kernels_sse2.cpp (compiled for baseline
// x86-64) and by kernels_avx2.cpp (re-compiled VEX-encoded; the AVX2 table
// reuses these where a 256-bit version would not pay for itself).
//
// All functions are bit-exact with kernels_scalar.cpp; see the equivalence
// notes next to each and the fuzz suite in tests/test_kernels.cpp.
#pragma once

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "kernels/idct_butterfly.h"
#include "kernels/simd_common.h"

namespace pdw::kernels::m128 {
// Anonymous namespace on purpose: this header is compiled once per kernel TU
// with different target flags (-msse2 baseline vs -mavx2). Internal linkage
// keeps the linker from comdat-folding the copies into a single encoding,
// which would defeat per-level dispatch.
namespace {

// ---------------------------------------------------------------------------
// IDCT
// ---------------------------------------------------------------------------

// Eight int32 lanes as a pair of __m128i (lanes 0-3 / 4-7).
struct Ops {
  struct V {
    __m128i lo, hi;
  };
  static V add(V a, V b) {
    return {_mm_add_epi32(a.lo, b.lo), _mm_add_epi32(a.hi, b.hi)};
  }
  static V sub(V a, V b) {
    return {_mm_sub_epi32(a.lo, b.lo), _mm_sub_epi32(a.hi, b.hi)};
  }
  static V shl(V a, int n) {
    return {_mm_slli_epi32(a.lo, n), _mm_slli_epi32(a.hi, n)};
  }
  static V sra(V a, int n) {
    return {_mm_srai_epi32(a.lo, n), _mm_srai_epi32(a.hi, n)};
  }
  static V mulc(V a, int32_t c) {
    const __m128i vc = _mm_set1_epi32(c);
    return {simd::mul_lo32(a.lo, vc), simd::mul_lo32(a.hi, vc)};
  }
  static V splat(int32_t c) {
    const __m128i v = _mm_set1_epi32(c);
    return {v, v};
  }
  static V trunc16(V a) { return sra(shl(a, 16), 16); }
  static __m128i clamp_lane(__m128i v) {
    // SSE2 has no 32-bit min/max: compare-and-select against both bounds.
    const __m128i hi = _mm_set1_epi32(255);
    const __m128i lo = _mm_set1_epi32(-256);
    __m128i m = _mm_cmpgt_epi32(v, hi);
    v = _mm_or_si128(_mm_and_si128(m, hi), _mm_andnot_si128(m, v));
    m = _mm_cmpgt_epi32(lo, v);
    return _mm_or_si128(_mm_and_si128(m, lo), _mm_andnot_si128(m, v));
  }
  static V clamp256(V a) { return {clamp_lane(a.lo), clamp_lane(a.hi)}; }
};

inline void idct_8x8(int16_t block[64]) {
  __m128i r[8];
  for (int i = 0; i < 8; ++i)
    r[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 8 * i));
  simd::transpose8x8_epi16(r);  // r[k] = coefficient column k
  Ops::V v[8];
  for (int k = 0; k < 8; ++k)
    v[k] = {simd::sext_lo16(r[k]), simd::sext_hi16(r[k])};
  idct_rows_vec<Ops>(v);
  // Row-pass outputs were truncated to int16, so packs never saturates.
  for (int k = 0; k < 8; ++k) r[k] = _mm_packs_epi32(v[k].lo, v[k].hi);
  simd::transpose8x8_epi16(r);  // r[j] = row-pass output row j
  for (int j = 0; j < 8; ++j)
    v[j] = {simd::sext_lo16(r[j]), simd::sext_hi16(r[j])};
  idct_cols_vec<Ops>(v);
  for (int j = 0; j < 8; ++j)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(block + 8 * j),
                     _mm_packs_epi32(v[j].lo, v[j].hi));
}

// ---------------------------------------------------------------------------
// Half-pel interpolation / averaging
// ---------------------------------------------------------------------------

// One 16-wide (a, b, c, d) quad average: (a+b+c+d+2)>>2, exact via u16.
inline __m128i quad_avg16(__m128i a, __m128i b, __m128i c, __m128i d) {
  const __m128i z = _mm_setzero_si128();
  const __m128i two = _mm_set1_epi16(2);
  __m128i lo = _mm_add_epi16(
      _mm_add_epi16(_mm_unpacklo_epi8(a, z), _mm_unpacklo_epi8(b, z)),
      _mm_add_epi16(_mm_unpacklo_epi8(c, z), _mm_unpacklo_epi8(d, z)));
  __m128i hi = _mm_add_epi16(
      _mm_add_epi16(_mm_unpackhi_epi8(a, z), _mm_unpackhi_epi8(b, z)),
      _mm_add_epi16(_mm_unpackhi_epi8(c, z), _mm_unpackhi_epi8(d, z)));
  lo = _mm_srli_epi16(_mm_add_epi16(lo, two), 2);
  hi = _mm_srli_epi16(_mm_add_epi16(hi, two), 2);
  return _mm_packus_epi16(lo, hi);
}

// Same for an 8-wide quad (low halves only).
inline __m128i quad_avg8(__m128i a, __m128i b, __m128i c, __m128i d) {
  const __m128i z = _mm_setzero_si128();
  const __m128i two = _mm_set1_epi16(2);
  __m128i lo = _mm_add_epi16(
      _mm_add_epi16(_mm_unpacklo_epi8(a, z), _mm_unpacklo_epi8(b, z)),
      _mm_add_epi16(_mm_unpacklo_epi8(c, z), _mm_unpacklo_epi8(d, z)));
  lo = _mm_srli_epi16(_mm_add_epi16(lo, two), 2);
  return _mm_packus_epi16(lo, lo);
}

inline __m128i load8(const uint8_t* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}
inline __m128i load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void store8(uint8_t* p, __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}
inline void store16(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline void interp_halfpel(const uint8_t* src, int src_stride, uint8_t* dst,
                           int dst_stride, int size, int hx, int hy) {
  if (size == 16) {
    for (int r = 0; r < 16; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      if (!hx && !hy) {
        store16(d, load16(s0));
      } else if (hx && !hy) {
        store16(d, _mm_avg_epu8(load16(s0), load16(s0 + 1)));
      } else if (!hx && hy) {
        store16(d, _mm_avg_epu8(load16(s0), load16(s0 + src_stride)));
      } else {
        const uint8_t* s1 = s0 + src_stride;
        store16(d, quad_avg16(load16(s0), load16(s0 + 1), load16(s1),
                              load16(s1 + 1)));
      }
    }
  } else if (size == 8) {
    for (int r = 0; r < 8; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      if (!hx && !hy) {
        store8(d, load8(s0));
      } else if (hx && !hy) {
        store8(d, _mm_avg_epu8(load8(s0), load8(s0 + 1)));
      } else if (!hx && hy) {
        store8(d, _mm_avg_epu8(load8(s0), load8(s0 + src_stride)));
      } else {
        const uint8_t* s1 = s0 + src_stride;
        store8(d,
               quad_avg8(load8(s0), load8(s0 + 1), load8(s1), load8(s1 + 1)));
      }
    }
  } else {
    // Out-of-contract block size: scalar fallback (same as the reference).
    for (int r = 0; r < size; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      const uint8_t* s1 = s0 + src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      for (int c = 0; c < size; ++c) {
        if (!hx && !hy)
          d[c] = s0[c];
        else if (hx && !hy)
          d[c] = uint8_t((s0[c] + s0[c + 1] + 1) >> 1);
        else if (!hx && hy)
          d[c] = uint8_t((s0[c] + s1[c] + 1) >> 1);
        else
          d[c] = uint8_t((s0[c] + s0[c + 1] + s1[c] + s1[c + 1] + 2) >> 2);
      }
    }
  }
}

inline void avg_pixels(uint8_t* p, const uint8_t* q, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16)
    store16(p + i, _mm_avg_epu8(load16(p + i), load16(q + i)));
  for (; i + 8 <= n; i += 8)
    store8(p + i, _mm_avg_epu8(load8(p + i), load8(q + i)));
  for (; i < n; ++i) p[i] = uint8_t((p[i] + q[i] + 1) >> 1);
}

// ---------------------------------------------------------------------------
// Residual add / intra store
// ---------------------------------------------------------------------------

inline void add_residual_8x8(const int16_t res[64], uint8_t* dst, int stride) {
  const __m128i z = _mm_setzero_si128();
  for (int r = 0; r < 8; ++r) {
    const __m128i res16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(res + 8 * r));
    uint8_t* d = dst + size_t(r) * stride;
    const __m128i d16 = _mm_unpacklo_epi8(load8(d), z);
    // packus saturates int16 -> [0,255], identical to the scalar clamp while
    // d + res stays within int16 (|res| <= 8192 by contract).
    const __m128i s = _mm_add_epi16(d16, res16);
    store8(d, _mm_packus_epi16(s, s));
  }
}

inline void put_residual_8x8(const int16_t res[64], uint8_t* dst, int stride) {
  for (int r = 0; r < 8; ++r) {
    const __m128i res16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(res + 8 * r));
    store8(dst + size_t(r) * stride, _mm_packus_epi16(res16, res16));
  }
}

// ---------------------------------------------------------------------------
// SAD
// ---------------------------------------------------------------------------

inline uint32_t hsum_sad(__m128i acc) {
  return uint32_t(_mm_cvtsi128_si32(acc)) +
         uint32_t(_mm_cvtsi128_si32(_mm_srli_si128(acc, 8)));
}

inline uint32_t sad16x16(const uint8_t* a, int a_stride, const uint8_t* b,
                         int b_stride, uint32_t best) {
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < 16; ++r)
    acc = _mm_add_epi64(
        acc, _mm_sad_epu8(load16(a + size_t(r) * a_stride),
                          load16(b + size_t(r) * b_stride)));
  const uint32_t sad = hsum_sad(acc);
  return sad < best ? sad : std::numeric_limits<uint32_t>::max();
}

inline uint32_t sad16x16_halfpel(const uint8_t* a, int a_stride,
                                 const uint8_t* b, int b_stride, int hx,
                                 int hy) {
  __m128i acc = _mm_setzero_si128();
  for (int r = 0; r < 16; ++r) {
    const uint8_t* pa = a + size_t(r) * a_stride;
    const uint8_t* b0 = b + size_t(r) * b_stride;
    __m128i pred;
    if (!hx && !hy)
      pred = load16(b0);
    else if (hx && !hy)
      pred = _mm_avg_epu8(load16(b0), load16(b0 + 1));
    else if (!hx && hy)
      pred = _mm_avg_epu8(load16(b0), load16(b0 + b_stride));
    else
      pred = quad_avg16(load16(b0), load16(b0 + 1), load16(b0 + b_stride),
                        load16(b0 + b_stride + 1));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(load16(pa), pred));
  }
  return hsum_sad(acc);
}

}  // namespace
}  // namespace pdw::kernels::m128

#endif  // __SSE2__
