// Multi-stream session edge cases: empty sessions, streams finishing out of
// attach order or mid-GOP, duplicate attaches, and the admission ledger
// draining as tenants finish. Decoded output is checked bit-exact against
// the serial reference decoder per stream.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/session.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw::proto {
namespace {

using core::StreamSession;
using mpeg2::Frame;

constexpr int kW = 256, kH = 192;

std::vector<uint8_t> encode_stream(int frames, uint64_t seed) {
  enc::EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.gop_size = 4;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  const auto gen = video::make_scene(video::SceneKind::kMovingObjects, kW, kH,
                                     uint32_t(seed));
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames, [&](int i, Frame* f) { gen->render(i, f); });
}

std::vector<Frame> reference_frames(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

const wall::TileGeometry& geometry() {
  static const wall::TileGeometry geo(kW, kH, 2, 2, 16);
  return geo;
}

TenantSpec spec(PriorityClass cls = PriorityClass::kStandard) {
  TenantSpec s;
  s.width_mb = uint16_t(geometry().mb_width());
  s.height_mb = uint16_t(geometry().mb_height());
  s.fps = 24;
  s.priority = cls;
  return s;
}

AdmissionController::Config roomy_config() {
  AdmissionController::Config cfg;
  cfg.capacity.mb_per_s = tenant_cost(spec()) * 16;
  cfg.capacity.admit_headroom = 1.0;
  return cfg;
}

// Assemble full wall frames per (stream, display slot) and compare each
// stream bit-exact against its serial reference.
struct WallCapture {
  std::map<std::pair<int, int>, std::unique_ptr<wall::WallAssembler>> slots;

  StreamSession::DisplayFn fn() {
    return [this](int stream, int tile, const mpeg2::TileFrame& tf,
                  const core::TileDisplayInfo& info) {
      auto& slot = slots[{stream, info.display_index}];
      if (!slot) slot = std::make_unique<wall::WallAssembler>(geometry());
      slot->add_tile(tile, tf, /*exact=*/!info.degraded);
    };
  }

  void expect_matches(int stream, const std::vector<Frame>& ref) {
    for (size_t i = 0; i < ref.size(); ++i) {
      const auto it = slots.find({stream, int(i)});
      ASSERT_NE(it, slots.end()) << "stream " << stream << " slot " << i;
      ASSERT_TRUE(it->second->coverage_complete());
      const Frame got = wall::crop_frame(it->second->frame(), kW, kH);
      const Frame want = wall::crop_frame(ref[i], kW, kH);
      EXPECT_EQ(got, want) << "stream " << stream << " slot " << i;
    }
    EXPECT_EQ(slots.count({stream, int(ref.size())}), 0u) << "extra slots";
  }
};

TEST(StreamSession, ZeroStreamsRunCompletes) {
  StreamSession session(geometry(), 2);
  bool displayed = false;
  const StreamSession::Result r = session.run(
      [&](int, int, const mpeg2::TileFrame&, const core::TileDisplayInfo&) {
        displayed = true;
      });
  EXPECT_EQ(r.streams, 0);
  EXPECT_EQ(r.pictures, 0u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_TRUE(r.stream_pictures.empty());
  EXPECT_FALSE(displayed);
}

TEST(StreamSession, StreamsFinishOutOfAttachOrder) {
  // The stream attached first is the longest: it must keep stepping for
  // rounds after the others are done, and every stream must stay bit-exact.
  const std::vector<uint8_t> long_es = encode_stream(12, 21);
  const std::vector<uint8_t> short_es = encode_stream(4, 22);
  StreamSession session(geometry(), 2);
  ASSERT_EQ(session.add_stream(long_es), 0);
  ASSERT_EQ(session.add_stream(short_es), 1);

  WallCapture capture;
  const StreamSession::Result r = session.run(capture.fn());
  EXPECT_EQ(r.streams, 2);
  ASSERT_EQ(r.stream_pictures.size(), 2u);
  EXPECT_EQ(r.stream_pictures[0], 12u);
  EXPECT_EQ(r.stream_pictures[1], 4u);
  EXPECT_EQ(r.pictures, 16u);
  capture.expect_matches(0, reference_frames(long_es));
  capture.expect_matches(1, reference_frames(short_es));
}

TEST(StreamSession, StreamEndingMidGopCoexistsAndReleasesItsBudget) {
  // 10 frames with gop_size 4 ends mid-GOP; the other stream keeps going.
  const std::vector<uint8_t> mid_gop_es = encode_stream(10, 31);
  const std::vector<uint8_t> full_es = encode_stream(12, 32);
  StreamSession session(geometry(), 2);
  session.enable_admission(roomy_config());
  ASSERT_EQ(session.attach_stream(0, mid_gop_es, spec()).verdict,
            AdmissionVerdict::kAccept);
  ASSERT_EQ(session.attach_stream(1, full_es, spec()).verdict,
            AdmissionVerdict::kAccept);

  WallCapture capture;
  const StreamSession::Result r = session.run(capture.fn());
  ASSERT_EQ(r.stream_pictures.size(), 2u);
  EXPECT_EQ(r.stream_pictures[0], 10u);
  EXPECT_EQ(r.stream_pictures[1], 12u);
  capture.expect_matches(0, reference_frames(mid_gop_es));
  capture.expect_matches(1, reference_frames(full_es));

  // Both tenants were released as their streams finished.
  ASSERT_NE(session.admission(), nullptr);
  EXPECT_FALSE(session.admission()->admitted(0));
  EXPECT_FALSE(session.admission()->admitted(1));
  EXPECT_NEAR(session.admission()->committed_load(), 0.0, 1e-9);
}

TEST(StreamSession, DuplicateAttachOfSameIdIsRejected) {
  const std::vector<uint8_t> es = encode_stream(4, 41);
  StreamSession session(geometry(), 2);
  session.enable_admission(roomy_config());
  ASSERT_EQ(session.attach_stream(5, es, spec()).verdict,
            AdmissionVerdict::kAccept);
  const AdmissionController::Reply dup = session.attach_stream(5, es, spec());
  EXPECT_EQ(dup.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(dup.level, DegradeLevel::kFreeze);
  EXPECT_EQ(session.streams(), 1);

  // Out-of-range ids are typed rejects too, not crashes.
  EXPECT_EQ(session.attach_stream(256, es, spec()).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(session.attach_stream(-1, es, spec()).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(session.streams(), 1);

  // The surviving stream still decodes to completion.
  const StreamSession::Result r = session.run(nullptr);
  ASSERT_EQ(r.stream_pictures.size(), 6u);  // indexed by id, 0..5
  EXPECT_EQ(r.stream_pictures[5], 4u);
  EXPECT_EQ(r.pictures, 4u);
}

TEST(StreamSession, RejectedTenantIsNeverStepped) {
  // Capacity for one tenant only: the second attach gets a typed reject and
  // the session never creates its stream.
  const std::vector<uint8_t> es = encode_stream(4, 51);
  AdmissionController::Config cfg;
  cfg.capacity.mb_per_s = tenant_cost(spec()) * 1.1;
  cfg.capacity.admit_headroom = 1.0;
  StreamSession session(geometry(), 2);
  session.enable_admission(cfg);
  ASSERT_EQ(session.attach_stream(0, es, spec()).verdict,
            AdmissionVerdict::kAccept);
  EXPECT_EQ(session.attach_stream(1, es, spec()).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(session.streams(), 1);
  const StreamSession::Result r = session.run(nullptr);
  EXPECT_EQ(r.pictures, 4u);
}

}  // namespace
}  // namespace pdw::proto
