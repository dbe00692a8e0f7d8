// Tile decoder unit tests: tile outputs equal the serial decoder's crop,
// halo-driven MC, MEI completeness enforcement, display ordering, flush.
#include <gtest/gtest.h>

#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"

namespace pdw::core {
namespace {

std::vector<uint8_t> make_stream(int w, int h, int frames, int me_range = 15) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  cfg.me_range = me_range;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 31);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

// Drives split + exchange + decode by hand for full control over the halo.
struct Harness {
  Harness(const std::vector<uint8_t>& es, const wall::TileGeometry& geo)
      : root(es), splitter(geo), geo_(geo) {
    splitter.set_stream_info(root.stream_info());
    for (int t = 0; t < geo.tiles(); ++t)
      decoders.push_back(
          std::make_unique<TileDecoder>(geo, t, root.stream_info()));
  }

  // Process picture i; returns per-tile displayed frames (may be empty).
  void step(int i, bool do_exchanges,
            const TileDecoder::DisplayFn& display = nullptr) {
    SplitResult r = splitter.split(root.picture(i), uint32_t(i));
    if (do_exchanges) {
      for (int t = 0; t < geo_.tiles(); ++t)
        for (const MeiInstruction& instr : r.mei[size_t(t)]) {
          if (instr.op != MeiOp::kSend) continue;
          const auto px = decoders[size_t(t)]->extract_for_send(r.info, instr);
          MeiInstruction recv = instr;
          recv.op = MeiOp::kRecv;
          decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
        }
    }
    for (int t = 0; t < geo_.tiles(); ++t)
      decoders[size_t(t)]->decode(r.subpictures[size_t(t)], display);
  }

  RootSplitter root;
  MacroblockSplitter splitter;
  const wall::TileGeometry& geo_;
  std::vector<std::unique_ptr<TileDecoder>> decoders;
};

TEST(TileDecoder, TileEqualsSerialCrop) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);

  // Serial reference frames in display order.
  std::vector<mpeg2::Frame> serial;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    serial.push_back(f);
  });

  std::vector<int> per_tile_count(size_t(geo.tiles()), 0);
  auto check = [&](int t) {
    return [&, t](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
      const mpeg2::Frame& ref = serial[size_t(info.display_index)];
      for (int y = tf.py0(); y < tf.py1(); ++y)
        for (int x = tf.px0(); x < tf.px1(); ++x)
          ASSERT_EQ(*tf.pixel(0, x, y), ref.y.at(x, y))
              << "tile " << t << " frame " << info.display_index << " at ("
              << x << "," << y << ")";
      ++per_tile_count[size_t(t)];
    };
  };

  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    for (int t = 0; t < geo.tiles(); ++t)
      for (const MeiInstruction& instr : r.mei[size_t(t)]) {
        if (instr.op != MeiOp::kSend) continue;
        const auto px = hn.decoders[size_t(t)]->extract_for_send(r.info, instr);
        MeiInstruction recv = instr;
        recv.op = MeiOp::kRecv;
        hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
      }
    for (int t = 0; t < geo.tiles(); ++t)
      hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], check(t));
  }
  for (int t = 0; t < geo.tiles(); ++t)
    hn.decoders[size_t(t)]->flush(check(t));
  for (int t = 0; t < geo.tiles(); ++t)
    EXPECT_EQ(per_tile_count[size_t(t)], int(serial.size()));
}

TEST(TileDecoder, MissingHaloIsAHardError) {
  // Decoding a P picture without executing the MEI exchanges must CHECK-fail
  // (no silent on-demand fallback), unless no vector crosses the boundary.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8, /*me_range=*/24);
  wall::TileGeometry geo(w, h, 4, 2, 0);
  Harness hn(es, geo);

  // Find the first picture that actually has exchanges.
  bool threw = false;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    int exchanges = 0;
    for (const auto& mei : r.mei) exchanges += int(mei.size());
    if (exchanges == 0) {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
      continue;
    }
    try {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
    } catch (const CheckError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos);
    }
    break;
  }
  EXPECT_TRUE(threw) << "expected a missing-halo CHECK failure";
}

TEST(TileDecoder, DisplayOrderMatchesSerialSemantics) {
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  Harness hn(es, geo);

  std::vector<uint32_t> display_pic_indices;
  std::vector<int> display_indices;
  auto record = [&](const mpeg2::TileFrame&, const TileDisplayInfo& info) {
    display_pic_indices.push_back(info.pic_index);
    display_indices.push_back(info.display_index);
  };
  for (int i = 0; i < hn.root.picture_count(); ++i)
    hn.step(i, true, record);
  hn.decoders[0]->flush(record);

  ASSERT_EQ(int(display_indices.size()), hn.root.picture_count());
  // display_index is a contiguous 0..N-1 sequence.
  for (int i = 0; i < int(display_indices.size()); ++i)
    EXPECT_EQ(display_indices[size_t(i)], i);
  // Decode order differs from display order iff B pictures exist.
  bool reordered = false;
  for (size_t i = 1; i < display_pic_indices.size(); ++i)
    if (display_pic_indices[i] < display_pic_indices[i - 1]) reordered = true;
  EXPECT_TRUE(reordered) << "stream with B pictures must reorder";
}

TEST(TileDecoder, StatsReportMacroblocksAndHalo) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);
  size_t halo_total = 0;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    hn.step(i, true);
    for (int t = 0; t < geo.tiles(); ++t) {
      EXPECT_EQ(hn.decoders[size_t(t)]->macroblocks_decoded_last_picture(),
                geo.tile_mbs(t).count());
      halo_total += hn.decoders[size_t(t)]->halo_mbs_last_picture();
    }
  }
  EXPECT_GT(halo_total, 0u) << "P/B pictures should need remote macroblocks";
}

TEST(TileDecoder, FlushWithoutPicturesIsANoOp) {
  const auto es = make_stream(192, 160, 2);
  wall::TileGeometry geo(192, 160, 1, 1, 0);
  RootSplitter root(es);
  TileDecoder dec(geo, 0, root.stream_info());
  int calls = 0;
  dec.flush([&](const mpeg2::TileFrame&, const TileDisplayInfo&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// A SEND for a P picture on a decoder that holds no reference frame yet.
MeiInstruction send_without_reference(PicInfo* pic) {
  pic->type = mpeg2::PicType::P;
  MeiInstruction send;
  send.op = MeiOp::kSend;
  send.ref = 0;
  send.peer = 1;
  return send;
}

TEST(TileDecoder, ConcealedSendWithoutReferenceIsGrayAndTainted) {
  const auto es = make_stream(192, 160, 2);
  wall::TileGeometry geo(192, 160, 2, 1, 0);
  RootSplitter root(es);
  TileDecoder dec(geo, 0, root.stream_info(), HaloPolicy::kConceal);
  PicInfo pic;
  const MeiInstruction send = send_without_reference(&pic);
  bool tainted = false;
  const mpeg2::MacroblockPixels px = dec.extract_for_send(pic, send, &tainted);
  EXPECT_TRUE(tainted);
  for (uint8_t v : px.y) ASSERT_EQ(v, 128);
  for (uint8_t v : px.cb) ASSERT_EQ(v, 128);
  for (uint8_t v : px.cr) ASSERT_EQ(v, 128);
}

TEST(TileDecoder, StrictSendWithoutReferenceIsAHardError) {
  const auto es = make_stream(192, 160, 2);
  wall::TileGeometry geo(192, 160, 2, 1, 0);
  RootSplitter root(es);
  TileDecoder dec(geo, 0, root.stream_info());  // kStrict
  PicInfo pic;
  const MeiInstruction send = send_without_reference(&pic);
  bool tainted = false;
  bool threw = false;
  try {
    (void)dec.extract_for_send(pic, send, &tainted);
  } catch (const CheckError& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("SEND before reference frames exist"),
              std::string::npos);
  }
  EXPECT_TRUE(threw) << "expected the missing-reference CHECK failure";
}

}  // namespace
}  // namespace pdw::core
