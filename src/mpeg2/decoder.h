// Serial MPEG-2 video elementary-stream decoder.
//
// This is the single-node reference decoder: the parallel pipeline must
// reproduce its output bit-exactly for every tiling configuration, and the
// cluster simulator uses its per-picture cost as the baseline "t_d" when one
// decoder owns the whole screen.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/start_code.h"
#include "common/decode_status.h"
#include "mpeg2/frame.h"
#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// Per-picture metadata surfaced with each decoded frame.
struct DecodedPictureInfo {
  int decode_index = 0;   // order in the bitstream
  int display_index = 0;  // order of presentation
  PicType type = PicType::I;
  size_t coded_bytes = 0;  // size of the picture's coded representation
};

// What to do when a picture's bitstream is malformed.
enum class ErrorPolicy {
  kStrict,   // throw BitstreamError (default; tests want loud failures)
  kConceal,  // resync at the next slice start code and conceal the damaged
             // macroblocks (zero-MV copy from the forward reference for P/B,
             // flat DC fill for I); undecodable pictures are dropped whole
};

class Mpeg2Decoder {
 public:
  using FrameCallback =
      std::function<void(const Frame&, const DecodedPictureInfo&)>;

  Mpeg2Decoder() = default;
  explicit Mpeg2Decoder(ErrorPolicy policy) : policy_(policy) {}

  // Decode an entire elementary stream, invoking `cb` once per picture in
  // *display* order (B pictures immediately, reference pictures deferred
  // until the next reference picture or end of stream).
  void decode(std::span<const uint8_t> es, const FrameCallback& cb);

  // Incremental interface used by pipeline components: feed one
  // picture-sized span (as produced by scan_pictures / the root splitter).
  void decode_picture_span(std::span<const uint8_t> es, const PictureSpan& ps,
                           const FrameCallback& cb);

  // Flush the pending reference frame at end of stream.
  void flush(const FrameCallback& cb);

  const SequenceHeader& sequence() const {
    PDW_CHECK(have_seq_);
    return seq_;
  }

  // Statistics for the cost model.
  int pictures_decoded() const { return decode_index_; }

  // Number of pictures that hit a bitstream error (kConceal mode).
  int concealed_pictures() const { return concealed_; }
  // Number of slices dropped due to errors (kConceal mode).
  int dropped_slices() const { return dropped_slices_; }
  // Number of macroblocks replaced by concealment (kConceal mode).
  int concealed_macroblocks() const { return concealed_mbs_; }

 private:
  DecodeStatus decode_picture(BitReader& r, size_t begin, size_t end,
                              const FrameCallback& cb);
  void emit(const Frame& f, PicType type, size_t coded_bytes,
            const FrameCallback& cb);

  SequenceHeader seq_;
  bool have_seq_ = false;

  // Reference frame management: ref_new_ is the most recent I/P.
  std::unique_ptr<Frame> ref_old_, ref_new_, cur_;
  bool pending_ref_ = false;  // ref_new_ not yet displayed
  size_t pending_ref_bytes_ = 0;
  PicType pending_ref_type_ = PicType::I;

  int decode_index_ = 0;
  int display_index_ = 0;
  ErrorPolicy policy_ = ErrorPolicy::kStrict;
  int concealed_ = 0;
  int dropped_slices_ = 0;
  int concealed_mbs_ = 0;
};

}  // namespace pdw::mpeg2
