// Macroblock-layer syntax decoder tests with hand-crafted bitstreams:
// predictor state machine, motion vector wrapping, skip semantics, quant
// updates, the sub-picture run driver, and kFull's in-loop dequantisation.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/bit_writer.h"
#include "common/stats.h"
#include "mpeg2/mb_parser.h"
#include "mpeg2/quant.h"
#include "mpeg2/tables.h"

namespace pdw::mpeg2 {
namespace {

using namespace mb_flags;

// Collects every macroblock the parser emits.
struct CollectSink : MbSink {
  struct Item {
    Macroblock mb;
    MbState before;
    size_t bit_begin, bit_end;
  };
  std::vector<Item> items;
  void on_macroblock(const Macroblock& mb, const MbState& before,
                     size_t bit_begin, size_t bit_end) override {
    items.push_back({mb, before, bit_begin, bit_end});
  }
};

// Bitstream builder mirroring the encoder's macroblock syntax.
class MbWriter {
 public:
  explicit MbWriter(const PictureContext& ctx) : ctx_(ctx) {
    st_.reset_dc(ctx.pce);
  }

  void increment(int inc) { encode_address_increment(w_, inc); }

  void type(uint8_t flags) { vlc_mb_type(ctx_.ph.type).encode(w_, flags); }

  void quant(int code) { w_.put(uint32_t(code), 5); }

  void mv(int s, int dx_half, int dy_half) {
    // Writes raw deltas relative to predictors, mirroring the decoder.
    const int comps[2] = {dx_half, dy_half};
    for (int t = 0; t < 2; ++t) {
      const int f_code = ctx_.pce.f_code[s][t];
      const int r_size = f_code - 1;
      const int f = 1 << r_size;
      int delta = comps[t] - st_.pmv[s][t];
      const int range = 16 * f;
      if (delta < -range) delta += 2 * range;
      if (delta >= range) delta -= 2 * range;
      if (delta == 0) {
        vlc_motion_code().encode(w_, 0);
      } else {
        const int a = std::abs(delta) - 1;
        vlc_motion_code().encode(w_, (delta < 0 ? -1 : 1) * (a / f + 1));
        if (r_size) w_.put(uint32_t(a % f), r_size);
      }
      st_.pmv[s][t] = int16_t(comps[t]);
    }
  }

  void cbp(int pattern) { vlc_coded_block_pattern().encode(w_, pattern); }

  // Intra DC: size VLC + differential against the component's predictor.
  void intra_dc(int cc, int dc_value) {
    const int diff = dc_value - dc_pred_[cc];
    dc_pred_[cc] = dc_value;
    int size = 0;
    for (int a = std::abs(diff); a; a >>= 1) ++size;
    (cc == 0 ? vlc_dct_dc_size_luma() : vlc_dct_dc_size_chroma())
        .encode(w_, size);
    if (size)
      w_.put(diff > 0 ? uint32_t(diff) : uint32_t(diff + (1 << size) - 1),
             size);
  }

  // Minimal intra block: DC diff only.
  void intra_block(int cc, int dc_value) {
    intra_dc(cc, dc_value);
    encode_eob_b14(w_);
  }

  // Run/level pairs for scan positions [from, 64) of `qfs`, then EOB.
  void coefficients(const int16_t qfs[64], int from, bool first) {
    int run = 0;
    for (int n = from; n < 64; ++n) {
      if (qfs[n] == 0) {
        ++run;
        continue;
      }
      encode_dct_coeff_b14(w_, run, qfs[n], first);
      first = false;
      run = 0;
    }
    encode_eob_b14(w_);
  }

  // Minimal inter block: one coefficient.
  void inter_block(int run, int level) {
    encode_dct_coeff_b14(w_, run, level, /*first=*/true);
    encode_eob_b14(w_);
  }

  void reset_dc() {
    dc_pred_[0] = dc_pred_[1] = dc_pred_[2] = ctx_.pce.dc_reset_value();
  }
  void reset_pmv() { st_.reset_pmv(); }

  std::vector<uint8_t> take() {
    w_.align_to_byte();
    return w_.take();
  }

 private:
  const PictureContext& ctx_;
  BitWriter w_;
  MbState st_;
  int dc_pred_[3] = {128, 128, 128};
};

class MbParserTest : public ::testing::Test {
 protected:
  MbParserTest() {
    seq_.width = 64;  // 4 macroblocks wide
    seq_.height = 32;
    ctx_.seq = &seq_;
    ctx_.pce.f_code[0][0] = ctx_.pce.f_code[0][1] = 2;
    ctx_.pce.f_code[1][0] = ctx_.pce.f_code[1][1] = 2;
  }

  PictureContext ctx_;
  SequenceHeader seq_;
};

TEST_F(MbParserTest, IntraSliceDcPrediction) {
  ctx_.ph.type = PicType::I;
  MbWriter w(ctx_);
  // Two intra macroblocks; DC values 200 then 50 for all components.
  for (int dc : {200, 50}) {
    w.increment(1);
    w.type(kIntra);
    for (int b = 0; b < 6; ++b) w.intra_block(b < 4 ? 0 : b - 3, dc);
  }
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 10, sink);

  ASSERT_EQ(sink.items.size(), 2u);
  EXPECT_EQ(sink.items[0].mb.addr, 0);
  EXPECT_EQ(sink.items[1].mb.addr, 1);
  EXPECT_TRUE(sink.items[0].mb.intra());
  // DC predictor state before MB 0 is the reset value; before MB 1 it is
  // the previous MB's DC.
  EXPECT_EQ(sink.items[0].before.dc_pred[0], 128);
  EXPECT_EQ(sink.items[1].before.dc_pred[0], 200);
  // Dequantised DC (precision 8 => multiplier 8).
  EXPECT_EQ(sink.items[0].mb.coeff[0][0], 200 * 8);
  EXPECT_EQ(sink.items[1].mb.coeff[0][0], 50 * 8);
}

TEST_F(MbParserTest, PSliceSkippedMacroblocks) {
  ctx_.ph.type = PicType::P;
  MbWriter w(ctx_);
  // MB0 coded with a motion vector, MBs 1-2 skipped, MB3 coded. Vectors are
  // chosen so every referenced window stays inside the 64x32 picture (the
  // parser rejects out-of-picture prediction as bitstream damage).
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, 5, 3);
  w.increment(3);  // skip two
  w.reset_pmv();   // decoder resets PMV across P-skips; mirror it
  w.type(kMotionForward);
  w.mv(0, -2, 2);
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 8, sink);

  ASSERT_EQ(sink.items.size(), 4u);
  EXPECT_FALSE(sink.items[0].mb.skipped);
  EXPECT_EQ(sink.items[0].mb.mv[0][0], 5);
  EXPECT_EQ(sink.items[0].mb.mv[0][1], 3);
  // The two skipped macroblocks use zero vectors.
  for (int i : {1, 2}) {
    EXPECT_TRUE(sink.items[size_t(i)].mb.skipped);
    EXPECT_EQ(sink.items[size_t(i)].mb.addr, i);
    EXPECT_EQ(sink.items[size_t(i)].mb.mv[0][0], 0);
    EXPECT_TRUE(sink.items[size_t(i)].mb.has_fwd());
  }
  // P-skip resets PMV, so MB3's vector decodes against (0,0).
  EXPECT_EQ(sink.items[3].mb.mv[0][0], -2);
  EXPECT_EQ(sink.items[3].before.pmv[0][0], 0);
}

TEST_F(MbParserTest, BSkipRepeatsPreviousPrediction) {
  ctx_.ph.type = PicType::B;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kMotionForward | kMotionBackward);
  w.mv(0, 4, 0);
  w.mv(1, 6, 0);
  w.increment(2);  // one skipped in between
  w.type(kMotionForward | kMotionBackward);
  w.mv(0, 4, 0);   // same vectors (delta 0) so the skip is representative
  w.mv(1, 6, 0);
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 1, 8, sink);

  ASSERT_EQ(sink.items.size(), 3u);
  const auto& skip = sink.items[1];
  EXPECT_TRUE(skip.mb.skipped);
  EXPECT_EQ(skip.mb.addr, 4 + 1);  // row 1 of a 4-wide picture
  EXPECT_TRUE(skip.mb.has_fwd());
  EXPECT_TRUE(skip.mb.has_bwd());
  EXPECT_EQ(skip.mb.mv[0][0], 4);
  EXPECT_EQ(skip.mb.mv[1][0], 6);
}

TEST_F(MbParserTest, QuantUpdatePropagates) {
  ctx_.ph.type = PicType::I;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kIntra | kQuant);
  w.quant(25);
  for (int b = 0; b < 6; ++b) w.intra_block(b < 4 ? 0 : b - 3, 100);
  w.increment(1);
  w.type(kIntra);
  for (int b = 0; b < 6; ++b) w.intra_block(b < 4 ? 0 : b - 3, 100);
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 3, sink);
  ASSERT_EQ(sink.items.size(), 2u);
  EXPECT_EQ(sink.items[0].before.quant_scale_code, 3);  // slice header value
  EXPECT_EQ(sink.items[0].mb.quant_scale_code, 25);     // after kQuant
  EXPECT_EQ(sink.items[1].mb.quant_scale_code, 25);     // persists
}

TEST_F(MbParserTest, MotionVectorWrapAround) {
  // f_code 2 => range [-32, 31] half-pel. pred 30 + delta 10 wraps to -24.
  ctx_.ph.type = PicType::P;
  ctx_.pce.f_code[0][0] = ctx_.pce.f_code[0][1] = 2;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, 30, 0);
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, -24, 0);  // delta = -54 -> wrapped +10 on the wire
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 8, sink);
  ASSERT_EQ(sink.items.size(), 2u);
  EXPECT_EQ(sink.items[0].mb.mv[0][0], 30);
  EXPECT_EQ(sink.items[1].mb.mv[0][0], -24);
}

TEST_F(MbParserTest, NoMcMacroblockResetsPmv) {
  ctx_.ph.type = PicType::P;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, 10, 10);
  // "No MC, coded": pattern-only type resets predictors and uses mv 0.
  w.increment(1);
  w.type(kPattern);
  w.cbp(32);
  w.inter_block(0, 3);
  w.reset_pmv();
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, 2, 2);  // decodes against reset predictors
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 8, sink);
  ASSERT_EQ(sink.items.size(), 3u);
  EXPECT_EQ(sink.items[1].mb.mv[0][0], 0);
  EXPECT_EQ(sink.items[1].mb.cbp, 32);
  EXPECT_EQ(sink.items[2].before.pmv[0][0], 0);
  EXPECT_EQ(sink.items[2].mb.mv[0][0], 2);
}

TEST_F(MbParserTest, ScanModeTracksStateWithoutCoefficients) {
  ctx_.ph.type = PicType::I;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kIntra);
  for (int b = 0; b < 6; ++b) w.intra_block(b < 4 ? 0 : b - 3, 99);
  const auto bytes = w.take();

  MbSyntaxDecoder full(ctx_, ParseMode::kFull);
  MbSyntaxDecoder scan(ctx_, ParseMode::kScan);
  CollectSink fs, ss;
  BitReader r1(bytes), r2(bytes);
  full.parse_slice_body(r1, 0, 5, fs);
  scan.parse_slice_body(r2, 0, 5, ss);
  ASSERT_EQ(fs.items.size(), 1u);
  ASSERT_EQ(ss.items.size(), 1u);
  // Identical state tracking and bit ranges...
  EXPECT_EQ(full.state(), scan.state());
  EXPECT_EQ(fs.items[0].bit_begin, ss.items[0].bit_begin);
  EXPECT_EQ(fs.items[0].bit_end, ss.items[0].bit_end);
  // ...but scan mode does not reconstruct coefficients.
  EXPECT_EQ(fs.items[0].mb.coeff[0][0], 99 * 8);
}

TEST_F(MbParserTest, RunDriverForcesFirstAddress) {
  ctx_.ph.type = PicType::P;
  MbWriter w(ctx_);
  // Written as if mid-slice: increment of 2 whose meaning the run ignores.
  w.increment(2);
  w.type(kMotionForward);
  w.mv(0, -3, -1);
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  MbState st;
  st.reset_dc(ctx_.pce);
  st.quant_scale_code = 9;
  dec.load_state(st);
  CollectSink sink;
  BitReader r(bytes);
  EXPECT_TRUE(dec.parse_run(r, /*first_addr=*/7, /*num_coded=*/1, sink).ok());
  ASSERT_EQ(sink.items.size(), 1u);
  EXPECT_EQ(sink.items[0].mb.addr, 7);  // forced, increment ignored
  EXPECT_EQ(sink.items[0].mb.mv[0][0], -3);
}

TEST_F(MbParserTest, RunDriverSynthesizesInteriorSkips) {
  ctx_.ph.type = PicType::P;
  MbWriter w(ctx_);
  w.increment(1);
  w.type(kMotionForward);
  w.mv(0, 0, 0);
  w.increment(3);  // two interior skips
  w.reset_pmv();
  w.type(kMotionForward);
  w.mv(0, -2, 0);
  const auto bytes = w.take();

  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  MbState st;
  st.reset_dc(ctx_.pce);
  dec.load_state(st);
  CollectSink sink;
  BitReader r(bytes);
  EXPECT_TRUE(dec.parse_run(r, 4, 2, sink).ok());
  ASSERT_EQ(sink.items.size(), 4u);
  EXPECT_EQ(sink.items[0].mb.addr, 4);
  EXPECT_TRUE(sink.items[1].mb.skipped);
  EXPECT_EQ(sink.items[1].mb.addr, 5);
  EXPECT_TRUE(sink.items[2].mb.skipped);
  EXPECT_EQ(sink.items[2].mb.addr, 6);
  EXPECT_EQ(sink.items[3].mb.addr, 7);
}

TEST_F(MbParserTest, SynthesizeSkippedStandalone) {
  ctx_.ph.type = PicType::B;
  MbSyntaxDecoder dec(ctx_, ParseMode::kFull);
  MbState st;
  st.reset_dc(ctx_.pce);
  st.prev_motion_flags = kMotionForward;
  st.pmv[0][0] = 11;
  st.pmv[0][1] = -7;
  dec.load_state(st);
  CollectSink sink;
  EXPECT_TRUE(dec.synthesize_skipped(4, 3, sink));
  ASSERT_EQ(sink.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(sink.items[size_t(i)].mb.skipped);
    EXPECT_EQ(sink.items[size_t(i)].mb.addr, 4 + i);
    EXPECT_EQ(sink.items[size_t(i)].mb.mv[0][0], 11);
    EXPECT_EQ(sink.items[size_t(i)].mb.mv[0][1], -7);
    EXPECT_FALSE(sink.items[size_t(i)].mb.has_bwd());
  }
}

TEST_F(MbParserTest, BitRangesAreContiguousAndExact) {
  ctx_.ph.type = PicType::I;
  MbWriter w(ctx_);
  for (int i = 0; i < 3; ++i) {
    w.increment(1);
    w.type(kIntra);
    for (int b = 0; b < 6; ++b) w.intra_block(b < 4 ? 0 : b - 3, 100 + i);
  }
  const auto bytes = w.take();
  MbSyntaxDecoder dec(ctx_, ParseMode::kScan);
  CollectSink sink;
  BitReader r(bytes);
  dec.parse_slice_body(r, 0, 4, sink);
  ASSERT_EQ(sink.items.size(), 3u);
  EXPECT_EQ(sink.items[0].bit_begin, 0u);
  for (size_t i = 1; i < 3; ++i)
    EXPECT_EQ(sink.items[i].bit_begin, sink.items[i - 1].bit_end);
}

// Random blocks through the whole coefficient path: B.14 table codes and
// escapes (up to +/-2047), runs ending at scan position 63, both scans, every
// intra_dc_precision, both q_scale_types and matrices holding 255. kFull's
// in-loop dequantisation must equal the scalar reference dequant of the same
// QFS, and kScan must end on the same bit. One decoder pair parses every
// trial, so a coefficient left over from an earlier block would show.
TEST_F(MbParserTest, FusedDequantMatchesReference) {
  SplitMix64 rng(7);
  MbSyntaxDecoder full(ctx_, ParseMode::kFull);
  MbSyntaxDecoder scan(ctx_, ParseMode::kScan);
  auto level = [&] {
    const uint32_t k = rng.next_below(20);
    const int mag = k < 10   ? 1 + int(rng.next_below(3))
                    : k < 15 ? 4 + int(rng.next_below(37))
                    : k < 19 ? 41 + int(rng.next_below(2006))
                             : 2047;
    return int16_t(rng.next_below(2) ? -mag : mag);
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const bool intra = trial % 2 == 0;
    ctx_.ph.type = intra ? PicType::I : PicType::P;
    ctx_.pce.alternate_scan = rng.next_below(2) != 0;
    ctx_.pce.intra_dc_precision = int(rng.next_below(4));
    ctx_.pce.q_scale_type = rng.next_below(2) != 0;
    for (auto* m : {&seq_.intra_quant, &seq_.non_intra_quant})
      for (uint8_t& v : *m)
        v = rng.next_below(8) == 0 ? 255 : uint8_t(1 + rng.next_below(255));
    const int quant = 1 + int(rng.next_below(31));
    const int cbp = intra ? 0x3F : 1 + int(rng.next_below(63));
    const uint32_t density = rng.next_below(4);  // sparse ... dense

    MbWriter w(ctx_);
    w.reset_dc();
    w.increment(1);
    w.type(intra ? uint8_t(kIntra | kQuant) : uint8_t(kPattern | kQuant));
    w.quant(quant);
    if (!intra) w.cbp(cbp);
    int16_t qfs[kBlocksPerMb][64] = {};
    for (int b = 0; b < kBlocksPerMb; ++b) {
      if (!(cbp & (0x20 >> b))) continue;
      for (int n = intra ? 1 : 0; n < 64; ++n)
        if (rng.next_below(64) < 1 + density * 20) qfs[b][n] = level();
      if (rng.next_below(4) == 0) qfs[b][63] = level();
      if (!intra && qfs[b][0] == 0) qfs[b][rng.next_below(64)] = level();
      if (intra) {
        const int cc = b < 4 ? 0 : b - 3;
        qfs[b][0] = int16_t(rng.next_below(256u << ctx_.pce.intra_dc_precision));
        w.intra_dc(cc, qfs[b][0]);
      }
      w.coefficients(qfs[b], intra ? 1 : 0, /*first=*/!intra);
    }
    const auto bytes = w.take();

    CollectSink fs, ss;
    BitReader r1(bytes), r2(bytes);
    ASSERT_TRUE(full.parse_slice_body(r1, 0, 1, fs).status.ok())
        << "trial " << trial;
    ASSERT_TRUE(scan.parse_slice_body(r2, 0, 1, ss).status.ok())
        << "trial " << trial;
    ASSERT_EQ(fs.items.size(), 1u);
    ASSERT_EQ(ss.items.size(), 1u);
    EXPECT_EQ(r1.bit_pos(), r2.bit_pos()) << "trial " << trial;
    EXPECT_EQ(fs.items[0].bit_end, ss.items[0].bit_end) << "trial " << trial;
    EXPECT_EQ(full.state(), scan.state()) << "trial " << trial;
    const Macroblock& mb = fs.items[0].mb;
    ASSERT_EQ(mb.cbp, cbp);

    const int scale = quantiser_scale(ctx_.pce.q_scale_type, quant);
    const uint8_t* zz = scan_table(ctx_.pce.alternate_scan).data();
    for (int b = 0; b < kBlocksPerMb; ++b) {
      if (!(cbp & (0x20 >> b))) continue;
      int16_t want[64];
      if (intra)
        dequant_intra(qfs[b], want, seq_.intra_quant.data(), scale,
                      ctx_.pce.intra_dc_mult(), zz);
      else
        dequant_non_intra(qfs[b], want, seq_.non_intra_quant.data(), scale,
                          zz);
      for (int i = 0; i < 64; ++i)
        ASSERT_EQ(mb.coeff[b][i], want[i])
            << "trial " << trial << " block " << b << " raster " << i;
    }
  }
}

}  // namespace
}  // namespace pdw::mpeg2
