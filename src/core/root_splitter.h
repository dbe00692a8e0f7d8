// Root (picture-level) splitter (paper §4.1, Table 2/3).
//
// Scans the elementary stream for byte-aligned start codes only — no VLC
// parsing — and cuts it into picture-sized work units, each carrying any
// sequence/GOP headers that preceded its picture. Pictures are handed to the
// k second-level splitters round-robin; the NSID ordering protocol lives in
// the pipeline layers, not here.
#pragma once

#include <span>
#include <vector>

#include "bitstream/start_code.h"
#include "core/subpicture.h"
#include "mpeg2/types.h"

namespace pdw::core {

class RootSplitter {
 public:
  // Scans `es` (borrowed; must outlive the splitter). Pictures that precede
  // the first decodable sequence header are dropped (they cannot be split
  // without geometry). Throws BitstreamError if the stream contains no
  // pictures or no usable sequence header at all.
  explicit RootSplitter(std::span<const uint8_t> es);

  // Sequence-level info parsed from the first sequence header, distributed
  // to splitters and decoders before the first picture.
  const StreamInfo& stream_info() const { return info_; }

  int picture_count() const { return int(spans_.size()); }
  std::span<const uint8_t> picture(int i) const {
    const PictureSpan& s = spans_[size_t(i)];
    return es_.subspan(s.begin, s.end - s.begin);
  }
  const PictureSpan& span(int i) const { return spans_[size_t(i)]; }

  // Coding type peeked by the start-code scan — available *before* any
  // splitting, which is what lets the shed ladder drop a picture for free.
  // Truncated or out-of-range headers report I, the conservative choice:
  // a picture the shed layer cannot classify is never shed.
  mpeg2::PicType picture_type(int i) const {
    const uint8_t t = spans_[size_t(i)].coding_type;
    return t >= 1 && t <= 3 ? mpeg2::PicType(t) : mpeg2::PicType::I;
  }

  // Wall-clock cost of the start-code scan, amortized per picture — the
  // root's only compute besides the output-buffer copy. Used by the cluster
  // simulator's cost model.
  double scan_seconds_per_picture() const { return scan_s_per_picture_; }

 private:
  std::span<const uint8_t> es_;
  std::vector<PictureSpan> spans_;
  StreamInfo info_;
  double scan_s_per_picture_ = 0;
};

}  // namespace pdw::core
