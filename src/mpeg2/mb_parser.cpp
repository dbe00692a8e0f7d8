#include "mpeg2/mb_parser.h"

#include <cstdlib>
#include <cstring>

#include "mpeg2/motion.h"
#include "mpeg2/quant.h"
#include "mpeg2/tables.h"

namespace pdw::mpeg2 {

using namespace mb_flags;

MbSyntaxDecoder::MbSyntaxDecoder(const PictureContext& ctx, ParseMode mode)
    : ctx_(ctx),
      mode_(mode),
      cbp_vlc_(vlc_coded_block_pattern()),
      motion_vlc_(vlc_motion_code()),
      dc_size_vlc_{&vlc_dct_dc_size_luma(), &vlc_dct_dc_size_chroma()} {
  state_.reset_dc(ctx.pce);
}

void MbSyntaxDecoder::begin_run() {
  mb_type_vlc_ = &vlc_mb_type(ctx_.ph.type);
  mb_width_ = ctx_.mb_width();
  error_ = DecodeStatus::success();
}

bool MbSyntaxDecoder::fail(DecodeErr code, const BitReader& r) {
  if (error_.ok())
    error_ = DecodeStatus::error(code, DecodeSeverity::kSlice, r.bit_pos());
  return false;
}

namespace {

// MPEG-2 forbids motion vectors that reference samples outside the picture
// (§7.6.3.8). A damaged-but-decodable VLC can still produce one; validating
// here — in the one parse shared by the serial decoder, the splitter and
// the tile decoders — turns it into an ordinary slice error everywhere at
// once, and downstream reconstruction can keep trusting its windows.
bool motion_in_picture(const PictureContext& ctx, const Macroblock& mb,
                       int mbx, int mby) {
  const bool use_fwd = (mb.flags & kMotionForward) ||
                       (ctx.ph.type == PicType::P && !(mb.flags & kIntra));
  const bool use_bwd = (mb.flags & kMotionBackward) != 0;
  for (int s = 0; s < 2; ++s) {
    if (s == 0 ? !use_fwd : !use_bwd) continue;
    const SrcWindow win = luma_source_window(mb, s, mbx, mby);
    if (win.x0 < 0 || win.y0 < 0 || win.x1 > ctx.mb_width() * 16 ||
        win.y1 > ctx.mb_height() * 16)
      return false;
  }
  return true;
}

}  // namespace

MbSyntaxDecoder::SliceResult MbSyntaxDecoder::parse_slice_body(
    BitReader& r, int mb_row, int quant_scale_code, MbSink& sink) {
  // Slice start resets all predictors (§7.2.1, §7.6.3.4).
  state_.reset_dc(ctx_.pce);
  state_.reset_pmv();
  state_.quant_scale_code = uint8_t(quant_scale_code);
  state_.prev_motion_flags = 0;
  begin_run();

  const int row_base = mb_row * mb_width_;
  int addr = row_base - 1;  // address of the "previous" macroblock

  while (true) {
    const size_t bit_begin = r.bit_pos();
    int increment = 0;
    if (!try_decode_address_increment(r, &increment)) {
      fail(DecodeErr::kBadVlc, r);
      return {error_, addr + 1};
    }
    // Bound-check before emitting. §6.1.2: the first and last macroblock of
    // a slice lie in the same macroblock row, so an increment that leaves
    // the row is damage. Enforcing it at parse time (rather than just the
    // picture bound) also keeps the splitter's per-tile runs row-local — the
    // property that makes interior-skip re-synthesis stay inside the tile.
    if (addr + increment >= row_base + mb_width_) {
      fail(DecodeErr::kBadValue, r);  // macroblock address leaves the slice row
      return {error_, addr + 1};
    }
    // Skipped macroblocks between the previous coded macroblock and this
    // one. (At slice start an increment > 1 is treated as leading skips,
    // matching common decoder practice.)
    for (int i = 1; i < increment; ++i)
      if (!emit_skipped(addr + i, sink)) return {error_, addr + i};
    addr += increment;
    if (!parse_coded(r, addr, bit_begin, sink)) return {error_, addr};
    // One sticky-overrun check per macroblock instead of one per read — the
    // reader zero-fills past the end, so everything between checks is
    // well-defined.
    if (r.overrun()) {
      fail(DecodeErr::kOverrun, r);  // slice overruns picture data
      return {error_, addr + 1};
    }
    // End of slice: the next 23 bits are zero (§6.2.5).
    if (r.peek(23) == 0) break;
  }
  return {DecodeStatus::success(), addr + 1};
}

bool MbSyntaxDecoder::synthesize_skipped(int addr, int count, MbSink& sink) {
  begin_run();
  for (int i = 0; i < count; ++i)
    if (!emit_skipped(addr + i, sink)) return false;
  return true;
}

DecodeStatus MbSyntaxDecoder::parse_run(BitReader& r, int first_addr,
                                        int num_coded, MbSink& sink) {
  begin_run();
  int addr = first_addr - 1;  // so that the forced first MB lands on first_addr
  // Runs come from slices, and slices are row-local (§6.1.2, enforced in
  // parse_slice_body) — mirror the same bound here.
  const int row_end = (first_addr / mb_width_ + 1) * mb_width_;
  for (int n = 0; n < num_coded; ++n) {
    const size_t bit_begin = r.bit_pos();
    int increment = 0;
    if (!try_decode_address_increment(r, &increment)) {
      fail(DecodeErr::kBadVlc, r);
      return error_;
    }
    if (n == 0) {
      // The first increment was coded relative to a macroblock that belongs
      // to another tile; SPH supplies the true address instead.
      addr = first_addr;
    } else {
      if (addr + increment >= row_end) {
        fail(DecodeErr::kBadValue, r);
        return error_;
      }
      for (int i = 1; i < increment; ++i)
        if (!emit_skipped(addr + i, sink)) return error_;
      addr += increment;
    }
    if (!parse_coded(r, addr, bit_begin, sink)) return error_;
    if (r.overrun()) {
      fail(DecodeErr::kOverrun, r);  // sub-picture run overruns payload
      return error_;
    }
  }
  return DecodeStatus::success();
}

bool MbSyntaxDecoder::emit_skipped(int addr, MbSink& sink) {
  const MbState before = state_;
  Macroblock& mb = scratch_;
  mb.addr = addr;
  mb.skipped = true;
  mb.cbp = 0;
  mb.quant_scale_code = state_.quant_scale_code;

  switch (ctx_.ph.type) {
    case PicType::P:
      // P skip: motion-compensate from the forward reference with a zero
      // vector; resets the motion vector predictors (§7.6.6).
      mb.flags = kMotionForward;
      mb.mv[0][0] = mb.mv[0][1] = 0;
      mb.mv[1][0] = mb.mv[1][1] = 0;
      state_.reset_pmv();
      break;
    case PicType::B: {
      // B skip: repeat the previous macroblock's prediction directions with
      // the current predictor values; predictors are unchanged.
      mb.flags = uint8_t(state_.prev_motion_flags & (kMotionForward | kMotionBackward));
      if (mb.flags == 0) {  // B skipped macroblock after intra: illegal
        if (error_.ok())
          error_ = DecodeStatus::error(DecodeErr::kBadStructure,
                                       DecodeSeverity::kSlice, 0);
        return false;
      }
      for (int s = 0; s < 2; ++s) {
        mb.mv[s][0] = state_.pmv[s][0];
        mb.mv[s][1] = state_.pmv[s][1];
      }
      // The inherited predictors were legal at the previous macroblock's
      // position but may leave the picture at this one.
      if (!motion_in_picture(ctx_, mb, mb.mb_x(mb_width_),
                             mb.mb_y(mb_width_))) {
        if (error_.ok())
          error_ = DecodeStatus::error(DecodeErr::kBadValue,
                                       DecodeSeverity::kSlice, 0);
        return false;
      }
      break;
    }
    case PicType::I:
      // Skipped macroblocks are illegal in I pictures.
      if (error_.ok())
        error_ = DecodeStatus::error(DecodeErr::kBadStructure,
                                     DecodeSeverity::kSlice, 0);
      return false;
  }
  state_.reset_dc(ctx_.pce);  // DC predictors reset after a skip (§7.2.1)
  sink.on_macroblock(mb, before, 0, 0);
  return true;
}

bool MbSyntaxDecoder::parse_coded(BitReader& r, int addr, size_t bit_begin,
                                  MbSink& sink) {
  const MbState before = state_;
  Macroblock& mb = scratch_;
  mb.addr = addr;
  mb.skipped = false;
  int mb_type = 0;
  if (!mb_type_vlc_->try_decode(r, &mb_type))
    return fail(DecodeErr::kBadVlc, r);
  mb.flags = uint8_t(mb_type);
  mb.cbp = 0;

  // frame_pred_frame_dct == 1 (enforced at parse) means no frame_motion_type
  // or dct_type bits are present here.

  if (mb.flags & kQuant) {
    const int code = int(r.read(5));
    if (code < 1) return fail(DecodeErr::kBadValue, r);
    state_.quant_scale_code = uint8_t(code);
  }
  mb.quant_scale_code = state_.quant_scale_code;

  if (mb.flags & kMotionForward)
    if (!parse_motion_vector(r, mb, 0)) return false;
  if (mb.flags & kMotionBackward)
    if (!parse_motion_vector(r, mb, 1)) return false;

  if (mb.flags & kIntra) {
    // Intra macroblocks reset the motion predictors (no concealment MVs).
    state_.reset_pmv();
    mb.mv[0][0] = mb.mv[0][1] = mb.mv[1][0] = mb.mv[1][1] = 0;
    mb.cbp = 0x3F;  // all six blocks coded
  } else {
    if (ctx_.ph.type == PicType::P && !(mb.flags & kMotionForward)) {
      // "No MC" macroblock: zero forward vector, predictors reset (§7.6.3.5).
      state_.reset_pmv();
      mb.mv[0][0] = mb.mv[0][1] = 0;
    }
    if (mb.flags & kPattern) {
      int cbp = 0;
      if (!cbp_vlc_.try_decode(r, &cbp))
        return fail(DecodeErr::kBadVlc, r);
      mb.cbp = cbp;
    } else {
      mb.cbp = 0;
    }
  }

  // Copy unused-direction predictors so reconstruction can rely on mb.mv.
  if (!(mb.flags & kIntra)) {
    if (!(mb.flags & kMotionForward) && ctx_.ph.type == PicType::B) {
      mb.mv[0][0] = state_.pmv[0][0];
      mb.mv[0][1] = state_.pmv[0][1];
    }
    if (!(mb.flags & kMotionBackward)) {
      mb.mv[1][0] = state_.pmv[1][0];
      mb.mv[1][1] = state_.pmv[1][1];
    }
    if (!motion_in_picture(ctx_, mb, mb.mb_x(mb_width_), mb.mb_y(mb_width_)))
      return fail(DecodeErr::kBadValue, r);  // MV references out-of-picture
  }

  // Blocks. Only coded blocks are written; reconstruction reads only those.
  const int scale =
      mode_ == ParseMode::kFull && mb.cbp
          ? quantiser_scale(ctx_.pce.q_scale_type, state_.quant_scale_code)
          : 0;
  for (int b = 0; b < kBlocksPerMb; ++b)
    if (mb.cbp & (0x20 >> b))
      if (!parse_block(r, mb, b, scale)) return false;

  // Post-macroblock state updates.
  if (!(mb.flags & kIntra)) state_.reset_dc(ctx_.pce);
  state_.prev_motion_flags = uint8_t(mb.flags & (kMotionForward | kMotionBackward));

  // Overrun check BEFORE the emit: an emitted macroblock's bit range must lie
  // inside the payload (the splitter copies [bit_begin, bit_end) verbatim),
  // so a macroblock assembled from zero-fill past the end is damage, not
  // output.
  if (r.overrun()) return fail(DecodeErr::kOverrun, r);

  sink.on_macroblock(mb, before, bit_begin, r.bit_pos());
  return true;
}

bool MbSyntaxDecoder::parse_motion_vector(BitReader& r, Macroblock& mb,
                                          int s) {
  for (int t = 0; t < 2; ++t) {
    const int f_code = ctx_.pce.f_code[s][t];
    // f_code comes from the (possibly damaged) picture coding extension;
    // 0 would make the shift below UB and >9 exceeds the MPEG-2 range.
    if (f_code < 1 || f_code > 9) return fail(DecodeErr::kBadValue, r);
    const int r_size = f_code - 1;
    const int f = 1 << r_size;

    int code = 0;
    if (!motion_vlc_.try_decode(r, &code))
      return fail(DecodeErr::kBadVlc, r);
    int delta = 0;
    if (code != 0) {
      int residual = 0;
      if (r_size > 0) residual = int(r.read(r_size));
      delta = (std::abs(code) - 1) * f + residual + 1;
      if (code < 0) delta = -delta;
    }

    const int range = 16 * f;  // half-sample units
    int v = state_.pmv[s][t] + delta;
    if (v < -range)
      v += 2 * range;
    else if (v >= range)
      v -= 2 * range;
    state_.pmv[s][t] = int16_t(v);
    mb.mv[s][t] = int16_t(v);
  }
  return true;
}

bool MbSyntaxDecoder::parse_block(BitReader& r, Macroblock& mb,
                                  int block_index, int scale) {
  // kFull dequantises each nonzero coefficient into its raster slot as it is
  // decoded (§7.4 via mpeg2/quant.h) and keeps the mismatch-control sum.
  const bool full = mode_ == ParseMode::kFull;
  const bool intra = mb.flags & kIntra;
  int16_t* f = mb.coeff[block_index];
  const uint8_t* scan = scan_table(ctx_.pce.alternate_scan).data();
  const uint8_t* w = intra ? ctx_.seq->intra_quant.data()
                           : ctx_.seq->non_intra_quant.data();
  int32_t sum = 0;
  if (full) std::memset(f, 0, sizeof(mb.coeff[0]));

  int n;  // next scan position to fill
  if (intra) {
    // DC coefficient: size VLC + differential, predicted per component.
    const int cc = block_index < 4 ? 0 : (block_index == 4 ? 1 : 2);
    int size = 0;
    if (!dc_size_vlc_[cc != 0]->try_decode(r, &size))
      return fail(DecodeErr::kBadVlc, r);
    int diff = 0;
    if (size > 0) {
      const int bits = int(r.read(size));
      const int half = 1 << (size - 1);
      diff = bits >= half ? bits : bits - (1 << size) + 1;
    }
    state_.dc_pred[cc] += diff;
    if (full) {
      f[0] = dequant_dc(int16_t(state_.dc_pred[cc]), ctx_.pce.intra_dc_mult());
      sum = f[0];
    }
    n = 1;
  } else {
    n = 0;
  }

  // AC coefficients (and the first coefficient of non-intra blocks). A
  // zero-filled overrun region decodes as an invalid B.14 code, so this loop
  // terminates on truncated input without per-read overrun checks.
  bool first = !intra;
  while (true) {
    DctCoeff c;
    if (!try_decode_dct_coeff_b14(r, first, &c))
      return fail(DecodeErr::kBadVlc, r);
    first = false;
    if (c.eob) break;
    n += c.run;
    if (n >= 64) return fail(DecodeErr::kBadValue, r);  // run beyond block
    if (full) {
      const int pos = scan[n];
      f[pos] = dequant_ac(c.level, w[pos], scale, intra);
      sum += f[pos];
    }
    ++n;
  }
  if (full) mismatch_control(f, sum);
  return true;
}

}  // namespace pdw::mpeg2
