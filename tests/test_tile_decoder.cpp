// Tile decoder unit tests: tile outputs equal the serial decoder's crop,
// halo-driven MC, MEI completeness enforcement, display ordering, flush,
// the row-band parallel decode (stream order inside a row, concurrent
// decoders sharing the pool, CHECKs surfacing on the calling thread), and
// the reference windows (read in place inside the rect, gathered across
// its edge or from the halo, taint either way).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "mpeg2/recon.h"
#include "stream_edits.h"
#include "video/generator.h"

// Heap allocations made by any thread of this binary while counting is on.
// Kept out of line so the compiler pairs callers with operator new/delete
// rather than with the malloc/free inside them.
std::atomic<bool> g_count_allocs{false};
std::atomic<int> g_allocs{0};

__attribute__((noinline)) void* operator new(size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) g_allocs.fetch_add(1);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

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

// Every plane of `tf` equals the same region of the serial frame `ref`.
::testing::AssertionResult tile_matches(const mpeg2::TileFrame& tf,
                                        const mpeg2::Frame& ref) {
  for (int c = 0; c < 3; ++c) {
    const int s = c == 0 ? 1 : 2;
    for (int y = tf.py0() / s; y < tf.py1() / s; ++y)
      for (int x = tf.px0() / s; x < tf.px1() / s; ++x)
        if (*tf.pixel(c, x, y) != ref.plane(c).at(x, y))
          return ::testing::AssertionFailure()
                 << "plane " << c << " differs at (" << x << "," << y << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<mpeg2::Frame> serial_frames(const std::vector<uint8_t>& es) {
  std::vector<mpeg2::Frame> frames;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    frames.push_back(f);
  });
  return frames;
}

// Decodes `es` on `geo` through the harness and checks every emitted tile
// against the serial decoder. With `concurrent`, each picture's tiles are
// decoded on one thread per tile at once, so their bands share the pool.
void expect_tiles_match_serial(const std::vector<uint8_t>& es,
                               const wall::TileGeometry& geo,
                               bool concurrent) {
  const std::vector<mpeg2::Frame> serial = serial_frames(es);
  Harness hn(es, geo);
  const size_t tiles = size_t(geo.tiles());
  // Per tile: (display slot, verdict), checked on this thread.
  std::vector<std::vector<std::pair<int, bool>>> shown(tiles);
  std::vector<TileDecoder::DisplayFn> display;
  for (size_t t = 0; t < tiles; ++t)
    display.push_back(
        [&, t](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
          const size_t slot = size_t(info.display_index);
          shown[t].emplace_back(
              info.display_index,
              slot < serial.size() && tile_matches(tf, serial[slot]));
        });
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    for (size_t t = 0; t < tiles; ++t)
      for (const MeiInstruction& instr : r.mei[t]) {
        if (instr.op != MeiOp::kSend) continue;
        const auto px = hn.decoders[t]->extract_for_send(r.info, instr);
        MeiInstruction recv = instr;
        recv.op = MeiOp::kRecv;
        hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
      }
    if (concurrent) {
      std::vector<std::thread> threads;
      for (size_t t = 0; t < tiles; ++t)
        threads.emplace_back([&, t] {
          hn.decoders[t]->decode(r.subpictures[t], display[t]);
        });
      for (std::thread& th : threads) th.join();
    } else {
      for (size_t t = 0; t < tiles; ++t)
        hn.decoders[t]->decode(r.subpictures[t], display[t]);
    }
  }
  for (size_t t = 0; t < tiles; ++t) hn.decoders[t]->flush(display[t]);
  for (size_t t = 0; t < tiles; ++t) {
    ASSERT_EQ(shown[t].size(), serial.size()) << "tile " << t;
    for (size_t k = 0; k < shown[t].size(); ++k) {
      EXPECT_EQ(shown[t][k].first, int(k)) << "tile " << t;
      EXPECT_TRUE(shown[t][k].second)
          << "tile " << t << " display slot " << shown[t][k].first;
    }
  }
}

TEST(TileDecoder, ReclaimedRowKeepsTheLaterSlice) {
  // The duplicate is a different picture's row, so the order the tile
  // decodes the two slices of that row in shows in the output: decoding the
  // original last would leave the original row where the serial decoder
  // shows the duplicate.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 12);
  const auto dup = with_reclaimed_row(es, 2);
  ASSERT_GT(dup.size(), es.size());
  const std::vector<mpeg2::Frame> before = serial_frames(es);
  const std::vector<mpeg2::Frame> after = serial_frames(dup);
  ASSERT_EQ(before.size(), after.size());
  size_t changed = 0;
  for (size_t k = 0; k < before.size(); ++k)
    changed += before[k].y == after[k].y ? 0 : 1;
  ASSERT_GT(changed, 0u) << "the re-claimed row must change the output";

  wall::TileGeometry geo(w, h, 2, 2, 0);
  expect_tiles_match_serial(dup, geo, /*concurrent=*/false);
}

TEST(TileDecoder, ConcurrentDecodersShareThePoolBitExactly) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 12);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  expect_tiles_match_serial(es, geo, /*concurrent=*/true);
}

TEST(TileDecoder, SteadyStateDecodeAllocatesNothing) {
  // Once the pool is up and the reference frames exist, decoding a picture
  // (bands, pool submission, reference views) touches no heap, on any
  // thread.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 12);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);
  std::vector<SplitResult> split;
  for (int i = 0; i < hn.root.picture_count(); ++i)
    split.push_back(hn.splitter.split(hn.root.picture(i), uint32_t(i)));
  int counted = 0;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    const SplitResult& r = split[size_t(i)];
    for (int t = 0; t < geo.tiles(); ++t)
      for (const MeiInstruction& instr : r.mei[size_t(t)]) {
        if (instr.op != MeiOp::kSend) continue;
        const auto px = hn.decoders[size_t(t)]->extract_for_send(r.info, instr);
        MeiInstruction recv = instr;
        recv.op = MeiOp::kRecv;
        hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
      }
    const bool steady = i >= 3;  // I, P and a B decoded: frames allocated
    g_allocs = 0;
    g_count_allocs = steady;
    for (int t = 0; t < geo.tiles(); ++t)
      hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
    g_count_allocs = false;
    if (steady) {
      EXPECT_EQ(g_allocs.load(), 0) << "picture " << i;
      ++counted;
    }
  }
  EXPECT_GT(counted, 0);
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

// --- Reference windows -------------------------------------------------------

// An 80x64 reference picture (5x4 macroblocks) with distinct samples, and
// the tile view of it a decoder of macroblocks [1, 3) x [1, 3) holds: its
// rect as a TileFrame and every other macroblock as halo.
struct RefFixture {
  RefFixture() : full(80, 64), tile(1, 1, 3, 3) {
    for (int c = 0; c < 3; ++c) {
      mpeg2::Plane& p = full.plane(c);
      for (int y = 0; y < p.height(); ++y)
        for (int x = 0; x < p.width(); ++x)
          p.set(x, y, uint8_t(x * 7 + y * 13 + c * 50));
    }
    for (int mby = 0; mby < 4; ++mby)
      for (int mbx = 0; mbx < 5; ++mbx) {
        const mpeg2::MacroblockPixels px = mpeg2::load_mb(full, mbx, mby);
        if (tile.contains_mb(mbx, mby))
          tile.insert_mb(mbx, mby, px);
        else
          halo.insert(mbx, mby, px);
      }
  }

  // The window's bytes against the full picture's.
  ::testing::AssertionResult matches(const mpeg2::RefWindow& win, int c, int x,
                                     int y, int w, int h) const {
    for (int r = 0; r < h; ++r)
      for (int k = 0; k < w; ++k)
        if (win.data[size_t(r) * win.stride + k] !=
            full.plane(c).at(x + k, y + r))
          return ::testing::AssertionFailure()
                 << "plane " << c << " window (" << x << "," << y << ") "
                 << w << "x" << h << " differs at (" << k << "," << r << ")";
    return ::testing::AssertionSuccess();
  }

  mpeg2::Frame full;
  mpeg2::TileFrame tile;
  HaloCache halo;
};

TEST(TileRefSource, WindowsInsideTheRectAreReadInPlace) {
  const RefFixture f;
  const TileRefSource src(&f.tile, f.halo, HaloPolicy::kStrict, false);
  uint8_t scratch[mpeg2::RefSource::kScratchBytes];
  struct Case {
    int c, x, y, w, h;
  };
  // Luma rect [16, 48) x [16, 48); chroma [8, 24) x [8, 24).
  for (const Case& k : {Case{0, 16, 16, 16, 16}, Case{0, 31, 20, 17, 17},
                        Case{0, 16, 31, 17, 17}, Case{1, 8, 8, 8, 8},
                        Case{2, 15, 15, 9, 9}, Case{1, 9, 10, 9, 8}}) {
    const mpeg2::RefWindow win = src.window(k.c, k.x, k.y, k.w, k.h, scratch);
    EXPECT_EQ(win.data, f.tile.pixel(k.c, k.x, k.y)) << "in place";
    EXPECT_EQ(win.stride, f.tile.plane(k.c).width());
    EXPECT_TRUE(f.matches(win, k.c, k.x, k.y, k.w, k.h));
  }
  EXPECT_FALSE(src.tainted());
}

TEST(TileRefSource, WindowsAcrossTheEdgeOrInTheHaloAreGathered) {
  const RefFixture f;
  const TileRefSource src(&f.tile, f.halo, HaloPolicy::kStrict, false);
  uint8_t scratch[mpeg2::RefSource::kScratchBytes];
  struct Case {
    int c, x, y, w, h;
  };
  for (const Case& k :
       {Case{0, 32, 16, 17, 16},  // one column past the rect's right edge
        Case{0, 10, 10, 17, 17},  // across its top-left corner
        Case{0, 16, 40, 16, 17},  // across its bottom edge
        Case{0, 0, 0, 17, 17},    // wholly in the halo
        Case{0, 63, 47, 17, 17},  // halo, at the picture's corner
        Case{1, 20, 4, 9, 9},     // chroma across the top edge
        Case{2, 0, 24, 8, 8}}) {  // chroma wholly in the halo
    const mpeg2::RefWindow win = src.window(k.c, k.x, k.y, k.w, k.h, scratch);
    EXPECT_EQ(win.data, scratch) << "gathered";
    EXPECT_EQ(win.stride, mpeg2::RefSource::kScratchStride);
    EXPECT_TRUE(f.matches(win, k.c, k.x, k.y, k.w, k.h));
  }
  EXPECT_FALSE(src.tainted());
}

TEST(TileRefSource, InPlaceReadsOfATaintedOrMissingReferenceTaint) {
  const RefFixture f;
  uint8_t scratch[mpeg2::RefSource::kScratchBytes];
  // A tainted reference taints only once it is read, in place or not.
  const TileRefSource tainted(&f.tile, f.halo, HaloPolicy::kConceal, true);
  EXPECT_FALSE(tainted.tainted());
  const mpeg2::RefWindow win = tainted.window(0, 20, 20, 16, 16, scratch);
  EXPECT_EQ(win.data, f.tile.pixel(0, 20, 20));
  EXPECT_TRUE(tainted.tainted());

  // A missing reference reads gray and taints.
  const TileRefSource missing(nullptr, f.halo, HaloPolicy::kConceal, false);
  const mpeg2::RefWindow gray = missing.window(0, 20, 20, 17, 16, scratch);
  for (int r = 0; r < 16; ++r)
    for (int k = 0; k < 17; ++k)
      ASSERT_EQ(gray.data[size_t(r) * gray.stride + k], 128);
  EXPECT_TRUE(missing.tainted());

  // So does a tainted halo entry, and a missing one under kConceal.
  HaloCache halo = f.halo;
  halo.insert(0, 1, mpeg2::load_mb(f.full, 0, 1), /*tainted=*/true);
  const TileRefSource bad_halo(&f.tile, halo, HaloPolicy::kConceal, false);
  (void)bad_halo.window(0, 8, 16, 16, 16, scratch);
  EXPECT_TRUE(bad_halo.tainted());
  const HaloCache empty;
  const TileRefSource no_halo(&f.tile, empty, HaloPolicy::kConceal, false);
  (void)no_halo.window(0, 8, 16, 16, 16, scratch);
  EXPECT_TRUE(no_halo.tainted());
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
