// Core MPEG-2 video data types shared by the decoder, the encoder and the
// macroblock-level splitter.
//
// Scope (see DESIGN.md §2): Main Profile, 4:2:0, progressive frame pictures,
// frame prediction / frame DCT. Interlaced coding tools and intra_vlc_format=1
// are intentionally rejected at parse time.
#pragma once

#include <array>
#include <cstdint>

#include "common/check.h"

namespace pdw::mpeg2 {

inline constexpr int kMbSize = 16;       // luma macroblock edge
inline constexpr int kBlockSize = 8;     // DCT block edge
inline constexpr int kBlocksPerMb = 6;   // 4 Y + Cb + Cr (4:2:0)

enum class PicType : uint8_t { I = 1, P = 2, B = 3 };

inline const char* pic_type_name(PicType t) {
  switch (t) {
    case PicType::I: return "I";
    case PicType::P: return "P";
    case PicType::B: return "B";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Headers (ISO/IEC 13818-2 §6.2)
// ---------------------------------------------------------------------------

struct SequenceHeader {
  int width = 0;   // horizontal_size (true size; MB-aligned internally)
  int height = 0;  // vertical_size
  int aspect_ratio_code = 1;     // 1 = square pixels
  int frame_rate_code = 5;       // 5 = 30 fps, 3 = 25 fps, 1 = 23.976 ...
  int bit_rate_value = 0x3FFFF;  // in 400 bit/s units (0x3FFFF = variable)
  int vbv_buffer_size = 112;
  std::array<uint8_t, 64> intra_quant;      // in zigzag order as transmitted
  std::array<uint8_t, 64> non_intra_quant;  // (stored in raster order here)
  bool loaded_intra_quant = false;
  bool loaded_non_intra_quant = false;

  // From the sequence extension.
  bool progressive_sequence = true;
  int profile_and_level = 0x44;  // Main@High

  int mb_width() const { return (width + kMbSize - 1) / kMbSize; }
  int mb_height() const { return (height + kMbSize - 1) / kMbSize; }

  // Frame rate in frames/s from frame_rate_code.
  double frame_rate() const;
};

struct GopHeader {
  uint32_t time_code = 0;
  bool closed_gop = true;
  bool broken_link = false;
};

struct PictureHeader {
  int temporal_reference = 0;  // display order within GOP, mod 1024
  PicType type = PicType::I;
  int vbv_delay = 0xFFFF;
};

struct PictureCodingExt {
  // f_code[s][t]: s = 0 forward / 1 backward, t = 0 horizontal / 1 vertical.
  int f_code[2][2] = {{15, 15}, {15, 15}};  // 15 = unused
  int intra_dc_precision = 0;  // 0 => 8 bits ... 3 => 11 bits
  int picture_structure = 3;   // 3 = frame picture (only supported value)
  bool top_field_first = true;
  bool frame_pred_frame_dct = true;  // only supported value
  bool concealment_motion_vectors = false;
  bool q_scale_type = false;   // false = linear, true = non-linear
  bool intra_vlc_format = false;  // only false supported
  bool alternate_scan = false;
  bool repeat_first_field = false;
  bool chroma_420_type = true;
  bool progressive_frame = true;

  int dc_reset_value() const { return 1 << (intra_dc_precision + 7); }
  int intra_dc_mult() const { return 8 >> intra_dc_precision; }
};

// Everything the macroblock layer needs to parse/decode one picture.
struct PictureContext {
  const SequenceHeader* seq = nullptr;
  PictureHeader ph;
  PictureCodingExt pce;

  int mb_width() const { return seq->mb_width(); }
  int mb_height() const { return seq->mb_height(); }
};

// ---------------------------------------------------------------------------
// Macroblock layer
// ---------------------------------------------------------------------------

// macroblock_type flag bits (decoded from tables B.2/B.3/B.4).
namespace mb_flags {
inline constexpr uint8_t kQuant = 0x01;
inline constexpr uint8_t kMotionForward = 0x02;
inline constexpr uint8_t kMotionBackward = 0x04;
inline constexpr uint8_t kPattern = 0x08;
inline constexpr uint8_t kIntra = 0x10;
}  // namespace mb_flags

// Rolling VLC-decode state at macroblock granularity. This is exactly the
// state the paper's State Propagation Header (§4.3) must carry to let a tile
// decoder resume mid-slice.
struct MbState {
  int32_t dc_pred[3] = {0, 0, 0};  // Y, Cb, Cr DC predictors
  int16_t pmv[2][2] = {{0, 0}, {0, 0}};  // [fwd/bwd][x/y] motion predictors
  uint8_t quant_scale_code = 1;          // current quantiser_scale_code
  // Direction flags of the previous macroblock; B-picture skipped macroblocks
  // repeat the previous macroblock's prediction directions.
  uint8_t prev_motion_flags = 0;

  void reset_dc(const PictureCodingExt& pce) {
    dc_pred[0] = dc_pred[1] = dc_pred[2] = pce.dc_reset_value();
  }
  void reset_pmv() { pmv[0][0] = pmv[0][1] = pmv[1][0] = pmv[1][1] = 0; }

  friend bool operator==(const MbState&, const MbState&) = default;
};

// One parsed macroblock. `coeff` holds dequantized coefficients in raster
// order for the blocks set in `cbp` when parsed in ParseMode::kFull (other
// blocks hold stale data); in ParseMode::kScan the VLCs are consumed but
// coefficients are not reconstructed (this is the splitter's cheap pass).
struct Macroblock {
  int32_t addr = 0;  // raster macroblock address in the picture
  uint8_t flags = 0;
  bool skipped = false;
  uint8_t quant_scale_code = 1;  // effective quantiser for this macroblock
  int16_t mv[2][2] = {{0, 0}, {0, 0}};  // [fwd/bwd][x/y], luma half-pel units
  int cbp = 0;                          // bit 5..0 = Y0 Y1 Y2 Y3 Cb Cr
  alignas(16) int16_t coeff[kBlocksPerMb][64] = {};

  int mb_x(int mb_width) const { return addr % mb_width; }
  int mb_y(int mb_width) const { return addr / mb_width; }
  bool intra() const { return flags & mb_flags::kIntra; }
  bool has_fwd() const { return flags & mb_flags::kMotionForward; }
  bool has_bwd() const { return flags & mb_flags::kMotionBackward; }
};

// quantiser_scale_code -> quantiser_scale (§7.4.2.2).
int quantiser_scale(bool q_scale_type, int code);

}  // namespace pdw::mpeg2
