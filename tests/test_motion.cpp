// Motion compensation tests: half-sample interpolation arithmetic,
// bidirectional averaging, chroma vector derivation, source windows, and
// encoder-side motion estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "enc/motion_est.h"
#include "mpeg2/motion.h"

namespace pdw::mpeg2 {
namespace {

using namespace mb_flags;

Frame gradient_frame(int w, int h) {
  Frame f(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) f.y.set(x, y, uint8_t((x * 3 + y * 5) & 0xFF));
  for (int y = 0; y < h / 2; ++y)
    for (int x = 0; x < w / 2; ++x) {
      f.cb.set(x, y, uint8_t((x + 2 * y) & 0xFF));
      f.cr.set(x, y, uint8_t((2 * x + y) & 0xFF));
    }
  return f;
}

TEST(MotionCompensate, FullPelIsACopy) {
  const Frame ref = gradient_frame(128, 64);
  FrameRefSource src(ref);
  Macroblock mb;
  mb.flags = kMotionForward;
  mb.mv[0][0] = 2 * 6;  // +6 px
  mb.mv[0][1] = 2 * 2;  // +2 px
  MacroblockPixels out;
  motion_compensate(mb, &src, nullptr, 1, 1, &out);
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 16; ++c)
      EXPECT_EQ(out.y[r * 16 + c], ref.y.at(16 + 6 + c, 16 + 2 + r));
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      EXPECT_EQ(out.cb[r * 8 + c], ref.cb.at(8 + 3 + c, 8 + 1 + r));
}

TEST(MotionCompensate, HalfPelHorizontalAveragesWithRounding) {
  Frame ref(64, 64);
  // Columns alternate 10, 13 -> half-pel average = (10+13+1)>>1 = 12.
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) ref.y.set(x, y, x % 2 ? 13 : 10);
  FrameRefSource src(ref);
  Macroblock mb;
  mb.flags = kMotionForward;
  mb.mv[0][0] = 1;  // half-pel right
  mb.mv[0][1] = 0;
  MacroblockPixels out;
  motion_compensate(mb, &src, nullptr, 1, 1, &out);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(out.y[i], 12) << i;
}

TEST(MotionCompensate, HalfPelBothAxesUsesFourTapAverage) {
  Frame ref(64, 64);
  // 2x2 checkerboard 0/255: four-tap average = (0+255+255+0+2)>>2 = 128.
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      ref.y.set(x, y, ((x + y) & 1) ? 255 : 0);
  FrameRefSource src(ref);
  Macroblock mb;
  mb.flags = kMotionForward;
  mb.mv[0][0] = 1;
  mb.mv[0][1] = 1;
  MacroblockPixels out;
  motion_compensate(mb, &src, nullptr, 1, 1, &out);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(out.y[i], 128) << i;
}

TEST(MotionCompensate, NegativeVectorsUseArithmeticShift) {
  // mv = -1 half-pel: integer part floor(-1/2) = -1, half flag set.
  const Frame ref = gradient_frame(64, 64);
  FrameRefSource src(ref);
  Macroblock mb;
  mb.flags = kMotionForward;
  mb.mv[0][0] = -1;
  mb.mv[0][1] = 0;
  MacroblockPixels out;
  motion_compensate(mb, &src, nullptr, 1, 1, &out);
  const int expect =
      (int(ref.y.at(15, 16)) + int(ref.y.at(16, 16)) + 1) >> 1;
  EXPECT_EQ(out.y[0], expect);
}

TEST(MotionCompensate, BidirectionalAverage) {
  Frame fwd(64, 64), bwd(64, 64);
  fwd.y.fill(10);
  bwd.y.fill(15);
  fwd.cb.fill(100);
  bwd.cb.fill(101);
  fwd.cr.fill(0);
  bwd.cr.fill(0);
  FrameRefSource fs(fwd), bs(bwd);
  Macroblock mb;
  mb.flags = kMotionForward | kMotionBackward;
  MacroblockPixels out;
  motion_compensate(mb, &fs, &bs, 1, 1, &out);
  EXPECT_EQ(out.y[0], 13);    // (10+15+1)>>1
  EXPECT_EQ(out.cb[0], 101);  // (100+101+1)>>1
}

TEST(MotionCompensate, ChromaVectorTruncatesTowardZero) {
  // Luma mv -3 => chroma mv -1 (truncation), not -2 (floor).
  Frame ref(64, 64);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) ref.cb.set(x, y, uint8_t(x * 8));
  FrameRefSource src(ref);
  Macroblock mb;
  mb.flags = kMotionForward;
  mb.mv[0][0] = -3;
  mb.mv[0][1] = 0;
  MacroblockPixels out;
  motion_compensate(mb, &src, nullptr, 1, 1, &out);
  // chroma x = 8*1 + (-1>>1) = 8 - 1 = 7, half flag set (-1 & 1).
  const int expect = (int(ref.cb.at(7, 8)) + int(ref.cb.at(8, 8)) + 1) >> 1;
  EXPECT_EQ(out.cb[0], expect);
}

TEST(FrameRefSource, WindowsAreReadInPlace) {
  const Frame ref = gradient_frame(64, 48);
  const FrameRefSource src(ref);
  uint8_t scratch[RefSource::kScratchBytes];
  const RefWindow y = src.window(0, 47, 31, 17, 17, scratch);  // corner
  EXPECT_EQ(y.data, ref.y.row(31) + 47);
  EXPECT_EQ(y.stride, 64);
  const RefWindow cr = src.window(2, 3, 5, 9, 8, scratch);
  EXPECT_EQ(cr.data, ref.cr.row(5) + 3);
  EXPECT_EQ(cr.stride, 32);
  // A window that leaves the picture is a contract violation.
  EXPECT_THROW(src.window(0, 48, 0, 17, 16, scratch), CheckError);
}

TEST(SourceWindow, CoversHalfPelFootprint) {
  Macroblock mb;
  mb.mv[0][0] = 5;   // int 2, half
  mb.mv[0][1] = -4;  // int -2, no half
  const SrcWindow w = luma_source_window(mb, 0, 3, 2);
  EXPECT_EQ(w.x0, 48 + 2);
  EXPECT_EQ(w.x1, 48 + 2 + 17);
  EXPECT_EQ(w.y0, 32 - 2);
  EXPECT_EQ(w.y1, 32 - 2 + 16);
}

// --- Motion estimation -------------------------------------------------------

TEST(MotionEstimation, FindsPureTranslationOnSmoothContent) {
  // Diamond search is a gradient-descent method: it needs content whose SAD
  // surface has a basin (smooth texture), not white noise. Build a smooth
  // 2-D sinusoid and shift it by a whole-pel offset.
  const int w = 128, h = 128;
  Frame ref(w, h), cur(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      ref.y.set(x, y,
                uint8_t(128 + 60 * std::sin(x * 0.11) * std::cos(y * 0.13)));
  // cur = ref shifted by (+4, -3) px.
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const int sx = std::clamp(x + 4, 0, w - 1);
      const int sy = std::clamp(y - 3, 0, h - 1);
      cur.y.set(x, y, ref.y.at(sx, sy));
    }
  enc::MeParams params;
  const auto r = enc::estimate_motion(cur.y, ref.y, 3, 3, 0, 0, params);
  EXPECT_EQ(r.mv_x, 8);   // +4 px in half-pel units
  EXPECT_EQ(r.mv_y, -6);  // -3 px
  EXPECT_EQ(r.sad, 0u);
}

TEST(MotionEstimation, HalfPelRefinementBeatsFullPel) {
  const int w = 96, h = 96;
  Frame ref(w, h), cur(w, h);
  // Smooth ramp; cur shifted by exactly half a pixel (average of neighbors).
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) ref.y.set(x, y, uint8_t((x * 2) & 0xFF));
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w - 1; ++x)
      cur.y.set(x, y, uint8_t((ref.y.at(x, y) + ref.y.at(x + 1, y) + 1) / 2));
  enc::MeParams params;
  const auto r = enc::estimate_motion(cur.y, ref.y, 2, 2, 0, 0, params);
  EXPECT_EQ(r.mv_x % 2, 1) << "expected a half-pel horizontal vector";
  EXPECT_LT(r.sad, 64u);
}

TEST(MotionEstimation, RespectsMvLimit) {
  const int w = 256, h = 64;
  Frame ref(w, h), cur(w, h);
  SplitMix64 rng(5);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) ref.y.set(x, y, uint8_t(rng.next()));
  // Shift by 40 px, more than the 15 px limit below allows.
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      cur.y.set(x, y, ref.y.at(std::min(x + 40, w - 1), y));
  enc::MeParams params;
  params.range_px = 15;
  params.mv_limit = 31;
  const auto r = enc::estimate_motion(cur.y, ref.y, 4, 1, 0, 0, params);
  EXPECT_LE(std::abs(r.mv_x), 31);
  EXPECT_LE(std::abs(r.mv_y), 31);
}

TEST(MotionEstimation, SadHalfpelRejectsOutOfPicture) {
  Frame a(32, 32), b(32, 32);
  EXPECT_EQ(enc::sad_halfpel(a.y, b.y, 0, 0, -1, 0),
            std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(enc::sad_halfpel(a.y, b.y, 1, 1, 31, 0),
            std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(enc::sad_halfpel(a.y, b.y, 0, 0, 0, 0), 0u);
}

TEST(MotionEstimation, PredictorSeedHelpsLargeMotion) {
  const int w = 256, h = 64;
  Frame ref(w, h), cur(w, h);
  SplitMix64 rng(6);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) ref.y.set(x, y, uint8_t(rng.next()));
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      cur.y.set(x, y, ref.y.at(std::min(x + 24, w - 1), y));
  enc::MeParams params;
  params.range_px = 31;
  params.mv_limit = 126;
  // Seeded with the true motion, the search must lock on exactly.
  const auto r = enc::estimate_motion(cur.y, ref.y, 4, 1, 48, 0, params);
  EXPECT_EQ(r.mv_x, 48);
  EXPECT_EQ(r.sad, 0u);
}

}  // namespace
}  // namespace pdw::mpeg2
