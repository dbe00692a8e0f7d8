// Macroblock splitter tests: run structure, SPH state snapshots, macroblock
// coverage, MEI symmetry/completeness — the structural properties behind the
// bit-exactness results — and pinned digests of the serial split's output,
// which the slice-parallel split must reproduce byte for byte.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>

#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "enc/encoder.h"
#include "proto/wire.h"
#include "stream_edits.h"
#include "video/generator.h"

namespace pdw::core {
namespace {

std::vector<uint8_t> make_stream(int w, int h, int frames,
                                 double bpp = 0.35, int me_range = 15) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  cfg.target_bpp = bpp;
  cfg.me_range = me_range;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 17);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

class MbSplitterTest : public ::testing::Test {
 protected:
  void split_all(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
                 std::vector<SplitResult>* results) {
    RootSplitter root(es);
    MacroblockSplitter splitter(geo);
    splitter.set_stream_info(root.stream_info());
    for (int i = 0; i < root.picture_count(); ++i)
      results->push_back(splitter.split(root.picture(i), uint32_t(i)));
  }
};

TEST_F(MbSplitterTest, EveryMacroblockCoveredExactlyByItsTiles) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 2, 32);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);

  for (const SplitResult& r : results) {
    // Per tile: lead + coded(from header counts) + trail macroblocks of all
    // runs equal at least the tile rect... exact equality holds only after
    // interior skips are parsed, so check the stats-level invariant instead:
    // the per-tile macroblock counts from the sink must each equal the
    // tile's rect size.
    for (int t = 0; t < geo.tiles(); ++t)
      EXPECT_EQ(r.stats.mbs_per_tile[size_t(t)], geo.tile_mbs(t).count())
          << "picture " << r.info.pic_index << " tile " << t;
    // Total macroblock count matches the picture.
    EXPECT_EQ(r.stats.macroblocks, geo.mb_width() * geo.mb_height());
  }
}

TEST_F(MbSplitterTest, AtMostOneRunPerSlicePerTile) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 3, 2, 16);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results) {
    for (int t = 0; t < geo.tiles(); ++t) {
      const auto& runs = r.subpictures[size_t(t)].runs;
      // Runs per tile == rows the tile spans (one slice per row, and the
      // tile's share of a slice is contiguous => exactly one run).
      const auto& rect = geo.tile_mbs(t);
      EXPECT_EQ(int(runs.size()), rect.y1 - rect.y0);
      // Runs arrive in row order with strictly increasing addresses.
      int prev_addr = -1;
      for (const auto& run : runs) {
        const int addr = run.num_coded
                             ? int(run.first_coded_addr)
                             : int(run.lead_skip_addr);
        EXPECT_GT(addr, prev_addr);
        prev_addr = addr;
      }
    }
  }
}

TEST_F(MbSplitterTest, MeiSendRecvAreSymmetric) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results) {
    // Build multisets of (src, dst, ref, x, y) from both directions.
    std::multiset<std::tuple<int, int, int, int, int>> sends, recvs;
    for (int t = 0; t < geo.tiles(); ++t) {
      for (const MeiInstruction& i : r.mei[size_t(t)]) {
        if (i.op == MeiOp::kSend)
          sends.insert({t, i.peer, i.ref, i.mb_x, i.mb_y});
        else
          recvs.insert({int(i.peer), t, i.ref, i.mb_x, i.mb_y});
      }
    }
    EXPECT_EQ(sends, recvs) << "picture " << r.info.pic_index;
  }
}

TEST_F(MbSplitterTest, MeiSendersOwnWhatTheySend) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 2, 2, 32);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results)
    for (int t = 0; t < geo.tiles(); ++t)
      for (const MeiInstruction& i : r.mei[size_t(t)]) {
        if (i.op != MeiOp::kSend) continue;
        EXPECT_TRUE(geo.tile_has_mb(t, i.mb_x, i.mb_y));
        EXPECT_EQ(geo.owner_of_mb(i.mb_x, i.mb_y), t);
        // Receivers only receive what they do NOT decode themselves.
        EXPECT_FALSE(geo.tile_has_mb(i.peer, i.mb_x, i.mb_y));
      }
}

TEST_F(MbSplitterTest, IntraPicturesNeedNoExchanges) {
  enc::EncoderConfig cfg;
  cfg.width = 320;
  cfg.height = 240;
  cfg.gop_size = 1;  // all-I stream
  cfg.b_frames = 0;
  const auto gen =
      video::make_scene(video::SceneKind::kPanningTexture, 320, 240, 3);
  enc::Mpeg2Encoder encoder(cfg);
  const auto es = encoder.encode(
      4, [&](int i, mpeg2::Frame* f) { gen->render(i, f); });

  wall::TileGeometry geo(320, 240, 4, 4, 0);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results) {
    EXPECT_EQ(r.stats.exchange_pairs, 0);
    for (const auto& mei : r.mei) EXPECT_TRUE(mei.empty());
  }
}

TEST_F(MbSplitterTest, SingleTileGetsWholePictureNoSph) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 3);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results) {
    ASSERT_EQ(r.subpictures.size(), 1u);
    const auto& sp = r.subpictures[0];
    EXPECT_EQ(int(sp.runs.size()), geo.mb_height());  // one run per slice
    for (const auto& run : sp.runs) {
      // Whole slices: no lead/trail skips, and every payload starts with a
      // coded macroblock at column 0 (our encoder codes slice-first MBs).
      EXPECT_EQ(run.lead_skip_count, 0);
      EXPECT_EQ(run.first_coded_addr % uint32_t(geo.mb_width()), 0u);
    }
    EXPECT_TRUE(r.mei[0].empty());
  }
}

TEST_F(MbSplitterTest, SphStateSnapshotsHaveSliceResetAtRowStart) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 3);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  const mpeg2::PictureCodingExt pce;  // defaults: precision 8
  for (const SplitResult& r : results) {
    // Tile 0 starts at column 0 of every slice, so its run states must be
    // exactly the fresh slice-start state (reset DC, zero PMV).
    for (const auto& run : r.subpictures[0].runs) {
      EXPECT_EQ(run.state.dc_pred[0], pce.dc_reset_value());
      EXPECT_EQ(run.state.pmv[0][0], 0);
      EXPECT_EQ(run.state.pmv[0][1], 0);
    }
  }
}

TEST_F(MbSplitterTest, OutputBytesAccountHeadersAndPayloads) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 3);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  std::vector<SplitResult> results;
  split_all(es, geo, &results);
  for (const SplitResult& r : results) {
    size_t expected = 0;
    for (int t = 0; t < geo.tiles(); ++t) {
      expected += r.subpictures[size_t(t)].wire_bytes();
      expected += 4 + r.mei[size_t(t)].size() * kMeiWireBytes;
    }
    EXPECT_EQ(r.stats.output_bytes, expected);
    EXPECT_GT(r.stats.output_bytes, r.stats.input_bytes / 2);
  }
}

TEST_F(MbSplitterTest, RejectsGeometryMismatch) {
  const auto es = make_stream(320, 240, 2);
  wall::TileGeometry wrong(640, 480, 2, 2, 0);
  RootSplitter root(es);
  MacroblockSplitter splitter(wrong);
  // A mismatched deployment configuration is a bug, caught at setup time.
  EXPECT_THROW(splitter.set_stream_info(root.stream_info()), CheckError);
  // A stream whose embedded sequence header disagrees with the wall is
  // per-picture damage: the split fails with a status, not a throw.
  const SplitResult r = splitter.split(root.picture(0), 0);
  EXPECT_FALSE(r.status.ok());
  EXPECT_TRUE(r.subpictures.empty());
}

// --- Pinned split output ----------------------------------------------------
//
// The slice-parallel split must reproduce the serial scan byte for byte. The
// digests below were taken from the serial splitter (one syntax decoder over
// every slice of the picture, in stream order) before the scan was cut into
// parts; each covers one picture's wire bytes for every tile (runs, SPH
// states, payload bytes and the MEI list, as pack_sp frames them), its cost
// rows and its statistics.

uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ull;
  return h;
}

template <typename T>
uint64_t fnv1a(uint64_t h, const std::vector<T>& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(T));
}

uint64_t split_digest(const SplitResult& r) {
  uint64_t h = 0xCBF29CE484222325ull;
  const SplitStats& st = r.stats;
  const int64_t counts[] = {st.macroblocks,       st.coded_macroblocks,
                            st.exchange_pairs,    st.dropped_slices,
                            st.concealed_macroblocks,
                            int64_t(st.input_bytes), int64_t(st.output_bytes)};
  h = fnv1a(h, counts, sizeof(counts));
  h = fnv1a(h, st.mbs_per_tile);
  h = fnv1a(h, st.cost_col);
  h = fnv1a(h, st.cost_row);
  for (size_t t = 0; t < r.subpictures.size(); ++t) {
    const proto::Packed p = proto::pack_sp(r.info.pic_index, uint16_t(t), 0,
                                           r.subpictures[t], r.mei[t]);
    h = fnv1a(h, p.body.data(), p.body.size());
  }
  return h;
}

// Splits every picture of `es` on `geo`; returns the per-picture digests
// and sums the dropped slices and concealed macroblocks.
std::vector<uint64_t> split_digests(const std::vector<uint8_t>& es,
                                    const wall::TileGeometry& geo,
                                    int* dropped, int* concealed) {
  RootSplitter root(es);
  MacroblockSplitter splitter(geo);
  splitter.set_stream_info(root.stream_info());
  std::vector<uint64_t> digests;
  for (int i = 0; i < root.picture_count(); ++i) {
    const SplitResult r = splitter.split(root.picture(i), uint32_t(i));
    EXPECT_TRUE(r.status.ok()) << "picture " << i;
    *dropped += r.stats.dropped_slices;
    *concealed += r.stats.concealed_macroblocks;
    digests.push_back(split_digest(r));
  }
  return digests;
}

// The digests as a C++ initializer, for re-pinning after a deliberate change
// of the split output.
std::string listing(const std::vector<uint64_t>& digests) {
  std::string s;
  char buf[32];
  for (uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "0x%016" PRIX64 "ull,\n", d);
    s += buf;
  }
  return s;
}

// 352x288 has 18 slice rows, more than one per split part; a 3x2 wall with
// projector overlap gives every macroblock up to four tiles and a wide me
// range gives many cross-tile exchanges.
class SplitDigests : public ::testing::Test {
 protected:
  static constexpr int kW = 352, kH = 288;
  static const std::vector<uint8_t>& clean() {
    static const std::vector<uint8_t> es =
        make_stream(kW, kH, 12, 0.35, /*me_range=*/24);
    return es;
  }
  wall::TileGeometry geo{kW, kH, 3, 2, 16};
};

TEST_F(SplitDigests, CleanStreamMatchesSerialSplit) {
  const std::vector<uint64_t> pinned = {
      0x2CF6B0C969B7665Dull, 0xF874302E4EE85845ull, 0x68B8166851D9C5A9ull,
      0x0396AE9A8E0193EAull, 0x31EF572D0517057Dull, 0xC69F03DC61A7957Eull,
      0xE73F5284406D54E7ull, 0x0F440D934BB55DFBull, 0x6E703261F5E77BF5ull,
      0x80F273615882F620ull, 0x7D24CD16F9D0F38Aull, 0x2779E0BF3EAB85B2ull,
  };
  int dropped = 0, concealed = 0;
  const std::vector<uint64_t> got =
      split_digests(clean(), geo, &dropped, &concealed);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(concealed, 0);
  EXPECT_EQ(got, pinned) << listing(got);
}

TEST_F(SplitDigests, BitFlippedStreamMatchesSerialSplit) {
  const std::vector<uint64_t> pinned = {
      0xB7433DAF2AB461E6ull, 0x5499C686231989C8ull, 0x7EF98A28FCC954FDull,
      0xCF49930C1108F73Aull, 0xAD16BE60322339A4ull, 0xABA58DE91BEE0A9Cull,
      0x6E4D4574A9B16954ull, 0x503DDFDD9249E9F2ull, 0xFE21A5FB0320E56Bull,
      0x6FF0E934F22294F5ull, 0x0F70323AE6C3D22Aull, 0x2779E0BF3EAB85B2ull,
  };
  int dropped = 0, concealed = 0;
  const std::vector<uint64_t> got = split_digests(
      with_flipped_slices(clean(), 5, 24), geo, &dropped, &concealed);
  EXPECT_GT(dropped, 0) << "the damage must drop slices";
  EXPECT_GT(concealed, 0) << "and conceal what they held";
  EXPECT_EQ(got, pinned) << listing(got);
}

TEST_F(SplitDigests, ReclaimedRowStreamMatchesSerialSplit) {
  const std::vector<uint64_t> pinned = {
      0x2CF6B0C969B7665Dull, 0xF874302E4EE85845ull, 0x68B8166851D9C5A9ull,
      0x0396AE9A8E0193EAull, 0x31EF572D0517057Dull, 0xC69F03DC61A7957Eull,
      0xA712073A4EF53E53ull, 0x0F440D934BB55DFBull, 0x6E703261F5E77BF5ull,
      0x80F273615882F620ull, 0x7D24CD16F9D0F38Aull, 0x2779E0BF3EAB85B2ull,
  };
  int dropped = 0, concealed = 0;
  const std::vector<uint64_t> got = split_digests(
      with_reclaimed_row(clean(), 2), geo, &dropped, &concealed);
  EXPECT_EQ(got, pinned) << listing(got);
}

}  // namespace
}  // namespace pdw::core
