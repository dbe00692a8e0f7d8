// Macroblock-layer syntax decoder (§6.2.5/§6.3.17 + §7 reconstruction of
// coefficients and motion vectors).
//
// This single state machine serves three distinct drivers:
//   * the serial reference decoder — parse whole slices in kFull mode;
//   * the second-level (macroblock) splitter — parse whole slices in kScan
//     mode, which consumes the VLCs and tracks predictor state but skips the
//     dequantisation and coefficient stores (this is what makes the split
//     pass cheaper than a decode pass, the t_s < t_d the paper relies on);
//   * tile decoders — parse sub-picture *runs*: a forced start address, a
//     known count of coded macroblocks, and SPH-provided initial state.
//
// kFull goes from bits to dequantised coefficients in one pass: each B.14
// run/level pair is dequantised (§7.4, mpeg2/quant.h) straight into its
// raster slot of Macroblock::coeff, with the mismatch sum kept on the way.
// Only the blocks set in `cbp` are written; the others hold stale data.
//
// The driver receives every macroblock, coded or skipped, through MbSink in
// picture order, along with the decode state *before* the macroblock and the
// exact bit range its coded representation occupies (for payload extraction).
#pragma once

#include "bitstream/bit_reader.h"
#include "common/decode_status.h"
#include "mpeg2/types.h"

namespace pdw::mpeg2 {

class Vlc;

enum class ParseMode {
  kFull,  // dequantised coefficients of the coded blocks in Macroblock::coeff
  kScan,  // consume syntax only (splitter's cheap pass)
};

class MbSink {
 public:
  virtual ~MbSink() = default;
  // `bit_begin`/`bit_end` delimit the macroblock's bits (including its
  // address increment) in the current reader; both are 0 for skipped
  // macroblocks, which occupy no bits.
  virtual void on_macroblock(const Macroblock& mb, const MbState& before,
                             size_t bit_begin, size_t bit_end) = 0;
};

class MbSyntaxDecoder {
 public:
  MbSyntaxDecoder(const PictureContext& ctx, ParseMode mode);

  MbState& state() { return state_; }
  const MbState& state() const { return state_; }
  const PictureContext& ctx() const { return ctx_; }

  // --- Whole-slice driver (decoder / splitter) -----------------------------

  // Result of parsing one slice body. No exceptions are thrown for damaged
  // input on this path: damage is reported in `status` and the caller
  // conceals from `end_addr` (one past the last macroblock delivered to the
  // sink) to the slice resync point.
  struct SliceResult {
    DecodeStatus status;
    int end_addr = 0;
  };

  // Parse one slice body. The reader is positioned after the slice header;
  // `mb_row` and `quant_scale_code` come from the slice header. Emits every
  // successfully parsed macroblock of the slice to `sink` (on failure the
  // damaged macroblock itself is never emitted).
  SliceResult parse_slice_body(BitReader& r, int mb_row, int quant_scale_code,
                               MbSink& sink);

  // --- Sub-picture run driver (tile decoder) --------------------------------
  //
  // Sub-picture payloads were already validated by the splitter's scan pass
  // over the same bits, so a failure here means the split machinery (not the
  // stream) is broken; callers CHECK the returned status.

  // Install SPH-provided state.
  void load_state(const MbState& s) { state_ = s; }

  // Synthesize `count` skipped macroblocks starting at `addr`. Returns false
  // on an impossible skip (skip in an I picture, B skip after intra).
  [[nodiscard]] bool synthesize_skipped(int addr, int count, MbSink& sink);

  // Parse `num_coded` coded macroblocks from `r`. The first macroblock's
  // address is forced to `first_addr` (its address increment is consumed but
  // ignored, per the SPH partial-slice convention); later increments
  // synthesize the interior skipped macroblocks normally.
  [[nodiscard]] DecodeStatus parse_run(BitReader& r, int first_addr,
                                       int num_coded, MbSink& sink);

 private:
  // Parse one coded macroblock at `addr`; updates state. Returns false on
  // damaged syntax (the macroblock is not emitted; error_ is latched).
  bool parse_coded(BitReader& r, int addr, size_t bit_begin, MbSink& sink);

  bool parse_motion_vector(BitReader& r, Macroblock& mb, int s);
  // `scale` is the macroblock's quantiser_scale (kFull only).
  bool parse_block(BitReader& r, Macroblock& mb, int block_index, int scale);
  bool emit_skipped(int addr, MbSink& sink);
  // Per slice or run: picks up the picture type and geometry from ctx_,
  // which a caller may change between runs.
  void begin_run();

  // Latch a slice-severity error at the reader's position; returns false so
  // parse helpers can `return fail(...)`.
  bool fail(DecodeErr code, const BitReader& r);

  const PictureContext& ctx_;
  ParseMode mode_;
  // Tables looked up once, not through a function-local static per call.
  const Vlc& cbp_vlc_;
  const Vlc& motion_vlc_;
  const Vlc* dc_size_vlc_[2];  // [0] luma, [1] chroma
  const Vlc* mb_type_vlc_ = nullptr;  // set by begin_run()
  int mb_width_ = 0;                  // set by begin_run()
  MbState state_;
  DecodeStatus error_;  // first damage seen in the current slice/run
  Macroblock scratch_;  // reused to avoid 800-byte clears per macroblock
};

}  // namespace pdw::mpeg2
