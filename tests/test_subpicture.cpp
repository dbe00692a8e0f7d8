// Sub-picture / SPH wire-format tests. The MEI list travels inside SpMsg
// (test_wire.cpp).
#include <gtest/gtest.h>

#include "core/subpicture.h"

namespace pdw::core {
namespace {

SpRun sample_run(int seed) {
  SpRun run;
  run.state.dc_pred[0] = 128 + seed;
  run.state.dc_pred[1] = 130;
  run.state.dc_pred[2] = -5;
  run.state.pmv[0][0] = int16_t(-33 + seed);
  run.state.pmv[1][1] = 900;
  run.state.quant_scale_code = uint8_t(1 + seed % 31);
  run.state.prev_motion_flags = 0x06;
  run.skip_bits = uint8_t(seed % 8);
  run.first_coded_addr = 1234 + uint32_t(seed);
  run.num_coded = 56;
  run.lead_skip_addr = 1200;
  run.lead_skip_count = 3;
  run.trail_skip_addr = 1290;
  run.trail_skip_count = 2;
  std::vector<uint8_t> payload;
  for (int i = 0; i < 100 + seed; ++i) payload.push_back(uint8_t(i * 7));
  run.payload = mem::Bytes::copy_of(payload);
  return run;
}

TEST(SubPicture, SerializeDeserializeRoundtrip) {
  SubPicture sp;
  sp.info.pic_index = 42;
  sp.info.type = mpeg2::PicType::B;
  sp.info.f_code[0][0] = 3;
  sp.info.f_code[1][1] = 4;
  sp.info.intra_dc_precision = 2;
  sp.info.q_scale_type = true;
  sp.info.alternate_scan = false;
  sp.info.temporal_reference = 7;
  sp.runs.push_back(sample_run(0));
  sp.runs.push_back(sample_run(5));

  std::vector<uint8_t> wire;
  sp.serialize(&wire);
  EXPECT_EQ(wire.size(), sp.wire_bytes());

  const SubPicture back = SubPicture::deserialize(wire);
  EXPECT_EQ(back.info.pic_index, 42u);
  EXPECT_EQ(back.info.type, mpeg2::PicType::B);
  EXPECT_EQ(back.info.f_code[0][0], 3);
  EXPECT_EQ(back.info.f_code[1][1], 4);
  EXPECT_TRUE(back.info.q_scale_type);
  ASSERT_EQ(back.runs.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.runs[i].state, sp.runs[i].state);
    EXPECT_EQ(back.runs[i].skip_bits, sp.runs[i].skip_bits);
    EXPECT_EQ(back.runs[i].first_coded_addr, sp.runs[i].first_coded_addr);
    EXPECT_EQ(back.runs[i].num_coded, sp.runs[i].num_coded);
    EXPECT_EQ(back.runs[i].lead_skip_count, sp.runs[i].lead_skip_count);
    EXPECT_EQ(back.runs[i].trail_skip_count, sp.runs[i].trail_skip_count);
    EXPECT_EQ(back.runs[i].payload, sp.runs[i].payload);
  }
}

TEST(SubPicture, EmptySubpictureRoundtrips) {
  SubPicture sp;
  sp.info.pic_index = 1;
  std::vector<uint8_t> wire;
  sp.serialize(&wire);
  const SubPicture back = SubPicture::deserialize(wire);
  EXPECT_TRUE(back.runs.empty());
}

TEST(SubPicture, PayloadBytesExcludesHeaders) {
  SubPicture sp;
  sp.runs.push_back(sample_run(0));
  EXPECT_EQ(sp.payload_bytes(), sp.runs[0].payload.size());
  EXPECT_GT(sp.wire_bytes(), sp.payload_bytes());
}

TEST(PicInfo, PceRoundtrip) {
  mpeg2::PictureHeader ph;
  ph.type = mpeg2::PicType::P;
  ph.temporal_reference = 3;
  mpeg2::PictureCodingExt pce;
  pce.f_code[0][0] = 2;
  pce.f_code[0][1] = 3;
  pce.intra_dc_precision = 1;
  pce.q_scale_type = true;
  pce.alternate_scan = true;
  const PicInfo info = PicInfo::from(9, ph, pce);
  const mpeg2::PictureCodingExt back = info.to_pce();
  EXPECT_EQ(back.f_code[0][0], 2);
  EXPECT_EQ(back.f_code[0][1], 3);
  EXPECT_EQ(back.intra_dc_precision, 1);
  EXPECT_TRUE(back.q_scale_type);
  EXPECT_TRUE(back.alternate_scan);
}

}  // namespace
}  // namespace pdw::core
