// Baseline (Table 1) model tests: measured quantities are sane and the
// qualitative ordering the paper argues for holds on real streams.
#include <gtest/gtest.h>

#include "baseline/levels.h"
#include "enc/encoder.h"
#include "video/generator.h"

namespace pdw::baseline {
namespace {

std::vector<uint8_t> make_stream(int w, int h, int frames) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.35;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 23);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

class BaselineTest : public ::testing::Test {
 protected:
  // Shared across tests: 640x480 is large enough that macroblock splitting
  // robustly dwarfs start-code scanning despite measurement overhead.
  static const std::vector<uint8_t>& es() {
    static const std::vector<uint8_t> s = make_stream(640, 480, 12);
    return s;
  }
  BaselineTest() : es_(es()), geo_(640, 480, 2, 2, 0) {}
  const std::vector<uint8_t>& es_;
  wall::TileGeometry geo_;
};

TEST_F(BaselineTest, MeasurementsAreSane) {
  const auto m = measure_stream(es_, geo_);
  EXPECT_EQ(m.pictures, 12);
  EXPECT_EQ(m.gops, 2);
  EXPECT_EQ(m.ip_pictures, 6);  // 2 GOPs x (1 I + 2 P)
  EXPECT_GT(m.t_full_decode, 0.0);
  EXPECT_GT(m.t_mb_split, m.t_scan * 5)
      << "macroblock splitting must dwarf start-code scanning";
  // Only positive, not ordered against t_full_decode: a tile decode spreads
  // its row bands over the work pool, so on a loaded host its wall time
  // waits on preempted workers and can exceed a serial full-picture decode.
  EXPECT_GT(m.t_tile_decode, 0.0);
  EXPECT_NEAR(m.frame_pixel_bytes, 1.5 * 640 * 480, 1.0);
  EXPECT_GT(m.avg_picture_bytes, 500.0);
}

TEST_F(BaselineTest, TableOneOrderingHolds) {
  const auto reports = compare_levels(es_, geo_, sim::LinkModel{});
  ASSERT_EQ(reports.size(), 6u);

  auto find = [&](ParallelLevel l) -> const LevelReport& {
    for (const auto& r : reports)
      if (r.level == l) return r;
    ADD_FAILURE();
    return reports[0];
  };
  const auto& seq = find(ParallelLevel::kSequence);
  const auto& gop = find(ParallelLevel::kGop);
  const auto& pic = find(ParallelLevel::kPicture);
  const auto& slice = find(ParallelLevel::kSlice);
  const auto& mb = find(ParallelLevel::kMacroblock);
  const auto& hier = find(ParallelLevel::kHierarchical);

  // Splitting cost: coarse levels are all scan-cheap; macroblock level pays
  // the full parse (paper: "very low" vs "high or moderate").
  EXPECT_GT(mb.split_s_per_picture, 5 * seq.split_s_per_picture);
  EXPECT_EQ(seq.split_s_per_picture, gop.split_s_per_picture);

  // Inter-decoder communication: none (sequence/GOP) < macroblock <= slice
  // < picture (paper's "none / none or low / very high / moderate / low").
  EXPECT_EQ(seq.interdecoder_bytes, 0.0);
  EXPECT_EQ(gop.interdecoder_bytes, 0.0);
  EXPECT_GT(pic.interdecoder_bytes, slice.interdecoder_bytes);
  EXPECT_GT(slice.interdecoder_bytes, 0.0);
  EXPECT_GT(pic.interdecoder_bytes, 4 * mb.interdecoder_bytes);

  // Pixel redistribution: very high for coarse levels, zero for macroblock.
  EXPECT_NEAR(seq.redistribution_bytes, 1.5 * 640 * 480 * 3 / 4.0, 1.0);
  EXPECT_EQ(mb.redistribution_bytes, 0.0);
  EXPECT_EQ(hier.redistribution_bytes, 0.0);
  EXPECT_LT(slice.redistribution_bytes, seq.redistribution_bytes);

  // The hierarchy is at least as fast as the one-level macroblock system.
  EXPECT_GE(hier.fps, mb.fps * 0.999);
  EXPECT_GE(hier.k, 1);
}

TEST_F(BaselineTest, SequenceLevelHasNoParallelism) {
  const auto reports = compare_levels(es_, geo_, sim::LinkModel{});
  const auto& seq = reports[0];
  const auto m = measure_stream(es_, geo_);
  // fps bounded by one full decode + full-frame redistribution per picture.
  EXPECT_LE(seq.fps, 1.0 / m.t_full_decode + 1.0);
}

TEST(BaselineLevelNames, AllDistinct) {
  std::set<std::string> names;
  for (ParallelLevel l :
       {ParallelLevel::kSequence, ParallelLevel::kGop, ParallelLevel::kPicture,
        ParallelLevel::kSlice, ParallelLevel::kMacroblock,
        ParallelLevel::kHierarchical})
    names.insert(level_name(l));
  EXPECT_EQ(names.size(), 6u);
}

}  // namespace
}  // namespace pdw::baseline
