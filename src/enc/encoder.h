// MPEG-2 Main Profile video encoder (progressive frame pictures, 4:2:0).
//
// Exists so the reproduction is self-contained: the paper's test material
// (DVD rips, HDTV captures, Orion Nebula flybys) is proprietary, so we
// synthesize content (src/video) and compress it ourselves at the paper's
// resolutions and bit rates (~0.3 bpp). The encoder is closed-loop (motion
// estimation against reconstructed references) and exercises the syntax the
// parallel decoder must handle: I/P/B pictures, skipped macroblocks, per-
// macroblock quantiser updates, MPEG-2 motion vector wrapping, slices with
// vertical-position extensions for >2800-line pictures.
#pragma once

#include <functional>
#include <vector>

#include "mpeg2/frame.h"
#include "mpeg2/types.h"

namespace pdw::enc {

struct EncoderConfig {
  int width = 0;   // must be multiples of 16
  int height = 0;
  int gop_size = 12;        // pictures per GOP (N)
  int b_frames = 2;         // B pictures between references (M - 1)
  double target_bpp = 0.3;  // average bits per luma pixel
  int frame_rate_code = 5;  // 30 fps
  int me_range = 15;        // full-pel search radius
  bool q_scale_type = false;
  bool alternate_scan = false;
  int intra_dc_precision = 0;
  bool adaptive_quant = true;   // modulate quantiser per MB by activity
  bool allow_skip = true;       // emit skipped macroblocks
  bool repeat_sequence_header = true;  // re-emit sequence header per GOP
  // Closed GOPs (default): every GOP is self-contained — what the paper's
  // GOP-level baseline requires. Open GOPs keep the B-picture cadence
  // running across GOP boundaries (leading B pictures of a GOP reference the
  // previous GOP's last P), like most broadcast encoders.
  bool closed_gops = true;
  // Scene-cut detection: when the mean absolute luma difference between a
  // would-be P picture and its reference exceeds this threshold, encode it
  // as an I picture instead (0 disables).
  double scene_cut_threshold = 0.0;
};

struct EncodeStats {
  int frames = 0;
  size_t total_bytes = 0;
  std::vector<size_t> picture_bytes;  // indexed by coded order
  int skipped_mbs = 0;
  int intra_mbs = 0;
  int inter_mbs = 0;
  int i_pictures = 0;
  int scene_cuts = 0;  // P pictures promoted to I by scene-cut detection

  double avg_bpp(int width, int height) const {
    return frames == 0 ? 0.0
                       : double(total_bytes) * 8.0 /
                             (double(width) * height * frames);
  }
};

// Supplies source frames by display index. The Frame is pre-sized to the
// (macroblock-aligned) configured dimensions; fill all three planes.
using FrameProducer = std::function<void(int display_index, mpeg2::Frame*)>;

class Mpeg2Encoder {
 public:
  explicit Mpeg2Encoder(const EncoderConfig& config);

  // Encode `num_frames` frames into a complete elementary stream
  // (sequence header ... sequence_end_code).
  std::vector<uint8_t> encode(int num_frames, const FrameProducer& produce,
                              EncodeStats* stats = nullptr);

 private:
  struct Impl;
  EncoderConfig config_;
  mpeg2::SequenceHeader seq_;
  mpeg2::PictureCodingExt pce_template_;
  int f_code_ = 1;
};

}  // namespace pdw::enc
