// Randomized equivalence fuzzing for the dispatched codec kernels.
//
// The DESIGN.md §5.1 bit-exactness invariant rests on every SIMD kernel
// being byte-identical to the scalar reference over the whole documented
// input domain. These tests hammer each table entry with random inputs
// (plus adversarial edge cases: saturation extremes, sparse blocks, odd
// strides, every hx/hy combination) and compare all supported levels
// against kScalar.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.h"

namespace pdw::kernels {
namespace {

// Deterministic PRNG (SplitMix64) so failures reproduce.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi] inclusive.
  int range(int lo, int hi) {
    return lo + int(next() % uint64_t(hi - lo + 1));
  }

 private:
  uint64_t s_;
};

std::vector<Level> simd_levels() {
  std::vector<Level> out;
  for (Level l : {Level::kSse2, Level::kAvx2})
    if (level_supported(l)) out.push_back(l);
  return out;
}

const KernelTable& scalar() { return *table_for(Level::kScalar); }

// ---------------------------------------------------------------------------
// IDCT
// ---------------------------------------------------------------------------

void fill_idct_block(Rng& rng, int16_t block[64], int shape) {
  switch (shape) {
    case 0:  // dense, dequant output range
      for (int i = 0; i < 64; ++i) block[i] = int16_t(rng.range(-2048, 2047));
      break;
    case 1:  // sparse: a few large coefficients
      std::memset(block, 0, 64 * sizeof(int16_t));
      for (int k = rng.range(1, 6); k > 0; --k)
        block[rng.range(0, 63)] = int16_t(rng.range(-2048, 2047));
      break;
    case 2:  // DC only (exercises the scalar shortcut vs the vector path)
      std::memset(block, 0, 64 * sizeof(int16_t));
      block[0] = int16_t(rng.range(-2048, 2047));
      break;
    case 3:  // full int16 range (out of spec but must still match exactly)
      for (int i = 0; i < 64; ++i) block[i] = int16_t(rng.next());
      break;
    default:  // saturation corners
      for (int i = 0; i < 64; ++i)
        block[i] = (rng.next() & 1) ? int16_t(-32768) : int16_t(32767);
      break;
  }
}

TEST(KernelFuzz, IdctMatchesScalar) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD levels on this host";
  Rng rng(0x1DC7'0001);
  for (int iter = 0; iter < 4000; ++iter) {
    alignas(32) int16_t input[64];
    fill_idct_block(rng, input, iter % 5);
    alignas(32) int16_t want[64];
    std::memcpy(want, input, sizeof(want));
    scalar().idct_8x8(want);
    for (Level l : levels) {
      alignas(32) int16_t got[64];
      std::memcpy(got, input, sizeof(got));
      table_for(l)->idct_8x8(got);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << "idct mismatch at level " << level_name(l) << " iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Half-pel interpolation / averaging
// ---------------------------------------------------------------------------

TEST(KernelFuzz, InterpHalfpelMatchesScalar) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD levels on this host";
  Rng rng(0x1DC7'0002);
  for (int iter = 0; iter < 2000; ++iter) {
    const int size = (iter & 1) ? 8 : 16;
    const int hx = (iter >> 1) & 1;
    const int hy = (iter >> 2) & 1;
    const int src_stride = size + hx + rng.range(0, 5);
    const int dst_stride = size + rng.range(0, 5);
    std::vector<uint8_t> src(size_t(src_stride) * (size + 1) + 16);
    for (auto& b : src) b = uint8_t(rng.next());
    std::vector<uint8_t> want(size_t(dst_stride) * size, 0xAA);
    std::vector<uint8_t> got = want;
    scalar().interp_halfpel(src.data(), src_stride, want.data(), dst_stride,
                            size, hx, hy);
    for (Level l : levels) {
      std::fill(got.begin(), got.end(), 0xAA);
      table_for(l)->interp_halfpel(src.data(), src_stride, got.data(),
                                   dst_stride, size, hx, hy);
      ASSERT_EQ(want, got) << "interp mismatch at level " << level_name(l)
                           << " size=" << size << " hx=" << hx << " hy=" << hy
                           << " iter " << iter;
    }
  }
}

TEST(KernelFuzz, AvgPixelsMatchesScalar) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD levels on this host";
  Rng rng(0x1DC7'0003);
  // Cover vector widths and every tail length, plus the real sizes
  // (16*16=256, 8*8=64).
  for (size_t n = 0; n <= 96; ++n) {
    std::vector<uint8_t> p(n), q(n);
    for (auto& b : p) b = uint8_t(rng.next());
    for (auto& b : q) b = uint8_t(rng.next());
    std::vector<uint8_t> want = p;
    scalar().avg_pixels(want.data(), q.data(), n);
    for (Level l : levels) {
      std::vector<uint8_t> got = p;
      table_for(l)->avg_pixels(got.data(), q.data(), n);
      ASSERT_EQ(want, got) << "avg mismatch at level " << level_name(l)
                           << " n=" << n;
    }
  }
  for (size_t n : {size_t(256), size_t(64)}) {
    for (int iter = 0; iter < 200; ++iter) {
      std::vector<uint8_t> p(n), q(n);
      for (auto& b : p) b = uint8_t(rng.next());
      for (auto& b : q) b = uint8_t(rng.next());
      std::vector<uint8_t> want = p;
      scalar().avg_pixels(want.data(), q.data(), n);
      for (Level l : levels) {
        std::vector<uint8_t> got = p;
        table_for(l)->avg_pixels(got.data(), q.data(), n);
        ASSERT_EQ(want, got) << "avg mismatch at level " << level_name(l);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Residual add / put
// ---------------------------------------------------------------------------

TEST(KernelFuzz, ResidualAddPutMatchesScalar) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD levels on this host";
  Rng rng(0x1DC7'0004);
  const int strides[] = {8, 16, 33};
  for (int iter = 0; iter < 2000; ++iter) {
    const int stride = strides[iter % 3];
    alignas(32) int16_t res[64];
    if (iter % 4 == 0) {
      // Saturation edges: residuals at the IDCT clamp bounds and beyond,
      // still inside the documented |res| <= 8192 domain.
      for (auto& v : res)
        v = int16_t(rng.range(0, 1) ? rng.range(-8192, -250)
                                    : rng.range(250, 8192));
    } else {
      for (auto& v : res) v = int16_t(rng.range(-256, 255));
    }
    std::vector<uint8_t> base(size_t(stride) * 8 + 8);
    for (auto& b : base) b = uint8_t(rng.next());

    for (bool put : {false, true}) {
      std::vector<uint8_t> want = base;
      auto op = put ? scalar().put_residual_8x8 : scalar().add_residual_8x8;
      op(res, want.data(), stride);
      for (Level l : levels) {
        std::vector<uint8_t> got = base;
        auto lop =
            put ? table_for(l)->put_residual_8x8 : table_for(l)->add_residual_8x8;
        lop(res, got.data(), stride);
        ASSERT_EQ(want, got)
            << (put ? "put" : "add") << " mismatch at level " << level_name(l)
            << " stride=" << stride << " iter " << iter;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SAD
// ---------------------------------------------------------------------------

TEST(KernelFuzz, SadMatchesScalar) {
  const auto levels = simd_levels();
  if (levels.empty()) GTEST_SKIP() << "no SIMD levels on this host";
  Rng rng(0x1DC7'0006);
  for (int iter = 0; iter < 2000; ++iter) {
    const int a_stride = 16 + rng.range(0, 17);
    const int b_stride = 17 + rng.range(0, 17);
    std::vector<uint8_t> a(size_t(a_stride) * 16 + 16);
    std::vector<uint8_t> b(size_t(b_stride) * 17 + 16);
    if (iter % 7 == 0) {
      // Identical blocks: SAD 0, must beat any positive threshold.
      for (auto& v : b) v = uint8_t(rng.next());
      for (int r = 0; r < 16; ++r)
        std::memcpy(a.data() + size_t(r) * a_stride,
                    b.data() + size_t(r) * b_stride, 16);
    } else {
      for (auto& v : a) v = uint8_t(rng.next());
      for (auto& v : b) v = uint8_t(rng.next());
    }

    // Threshold cases: unconstrained, near the true value (both sides), zero.
    const uint32_t exact =
        scalar().sad16x16(a.data(), a_stride, b.data(), b_stride, UINT32_MAX);
    const uint32_t thresholds[] = {UINT32_MAX, exact, exact + 1,
                                   exact > 0 ? exact - 1 : 0, 0};
    for (uint32_t best : thresholds) {
      const uint32_t want =
          scalar().sad16x16(a.data(), a_stride, b.data(), b_stride, best);
      for (Level l : levels) {
        const uint32_t got =
            table_for(l)->sad16x16(a.data(), a_stride, b.data(), b_stride, best);
        ASSERT_EQ(want, got) << "sad mismatch at level " << level_name(l)
                             << " best=" << best << " iter " << iter;
      }
    }

    const int hx = iter & 1, hy = (iter >> 1) & 1;
    const uint32_t want_h = scalar().sad16x16_halfpel(a.data(), a_stride,
                                                      b.data(), b_stride, hx,
                                                      hy);
    for (Level l : levels) {
      const uint32_t got_h = table_for(l)->sad16x16_halfpel(
          a.data(), a_stride, b.data(), b_stride, hx, hy);
      ASSERT_EQ(want_h, got_h)
          << "halfpel sad mismatch at level " << level_name(l) << " hx=" << hx
          << " hy=" << hy << " iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelDispatch, TablesAreSelfConsistent) {
  for (int i = 0; i < kLevelCount; ++i) {
    const Level l = Level(i);
    const KernelTable* t = table_for(l);
    if (t == nullptr) continue;
    EXPECT_EQ(t->level, l);
    EXPECT_STREQ(t->name, level_name(l));
    EXPECT_NE(t->idct_8x8, nullptr);
    EXPECT_NE(t->interp_halfpel, nullptr);
    EXPECT_NE(t->avg_pixels, nullptr);
    EXPECT_NE(t->add_residual_8x8, nullptr);
    EXPECT_NE(t->put_residual_8x8, nullptr);
    EXPECT_NE(t->sad16x16, nullptr);
    EXPECT_NE(t->sad16x16_halfpel, nullptr);
  }
  EXPECT_NE(table_for(Level::kScalar), nullptr) << "scalar must always exist";
}

TEST(KernelDispatch, SetActiveLevelRoundTrips) {
  const Level original = active_level();
  for (int i = 0; i < kLevelCount; ++i) {
    const Level l = Level(i);
    if (!level_supported(l)) {
      EXPECT_FALSE(set_active_level(l));
      continue;
    }
    EXPECT_TRUE(set_active_level(l));
    EXPECT_EQ(active_level(), l);
    EXPECT_EQ(&active(), table_for(l));
  }
  ASSERT_TRUE(set_active_level(original));
}

TEST(KernelDispatch, BestSupportedIsSupported) {
  EXPECT_TRUE(level_supported(best_supported_level()));
}

}  // namespace
}  // namespace pdw::kernels
