#include "core/root_splitter.h"

#include "common/timing.h"
#include "mpeg2/headers.h"

namespace pdw::core {

RootSplitter::RootSplitter(std::span<const uint8_t> es) : es_(es) {
  WallTimer timer;
  std::vector<PictureSpan> all = scan_pictures(es);
  PDW_BITSTREAM_CHECK(!all.empty()) << "no pictures in stream";
  const double scan_seconds = timer.seconds();
  scan_s_per_picture_ = scan_seconds / double(all.size());

  // Find the first picture whose sequence header actually decodes; pictures
  // before it cannot be split (no geometry) and are dropped. A clean stream
  // resolves this on spans_[0] with one parse.
  size_t first = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (!all[i].has_sequence_header) continue;
    // The sequence header is usually the span's first start code, but damage
    // can push junk ahead of it: scan the span's codes for 0xB3.
    const size_t span_end = all[i].end;
    size_t pos = all[i].begin;
    StartCodeHit hit = find_start_code(es, pos);
    while (hit.offset < span_end &&
           hit.code != start_code::kSequenceHeader) {
      hit = find_start_code(es, hit.offset + 4);
    }
    if (hit.offset >= span_end) continue;
    BitReader r(es.subspan(hit.offset + 4));
    mpeg2::SequenceHeader seq;
    if (!mpeg2::parse_sequence_header(r, &seq).ok()) continue;
    // Pick up the mandatory sequence extension that follows.
    r.align_to_byte();
    if (r.peek(24) == 0x000001) {
      const uint8_t code = uint8_t(r.read(32) & 0xFF);
      if (code == start_code::kExtension &&
          !mpeg2::parse_extension(r, &seq, nullptr).ok())
        continue;  // damaged extension => dimensions untrustworthy
    }
    info_.seq = seq;
    first = i;
    break;
  }
  PDW_BITSTREAM_CHECK(first < all.size())
      << "no decodable sequence header in stream";
  spans_.assign(all.begin() + std::ptrdiff_t(first), all.end());
}

}  // namespace pdw::core
