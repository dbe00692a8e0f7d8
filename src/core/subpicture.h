// Sub-pictures and State Propagation Headers (paper §4.1/§4.3).
//
// A second-level splitter sorts a picture's macroblocks into one sub-picture
// per tile decoder. A sub-picture is a sequence of *runs*: each run covers
// the tile's (contiguous) share of one original slice. The run's payload is
// copied byte-for-byte from the original stream — no bit realignment, as the
// paper prescribes — and the SPH records how many leading bits to skip plus
// the mid-slice decoder state (DC predictors, motion vector predictors,
// quantiser scale) needed to resume decoding a partial slice.
//
// Extensions over the paper's sketch (needed for full skipped-macroblock
// support): runs also carry explicit lead/trail *skipped* macroblock spans,
// because a skipped macroblock occupies no bits that could be copied — if a
// tile's share of a slice begins or ends with skips, the decoder must
// synthesize them. Interior skips are reproduced from the payload's
// macroblock address increments and need no SPH support.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mem/bytes.h"
#include "mpeg2/types.h"

namespace pdw {
class ByteWriter;
}

namespace pdw::core {

// Per-picture context a tile decoder needs (distilled from the picture
// header + picture coding extension; sequence-level data travels once in
// StreamInfo).
struct PicInfo {
  uint32_t pic_index = 0;  // decode order index in the stream
  mpeg2::PicType type = mpeg2::PicType::I;
  uint8_t f_code[2][2] = {{15, 15}, {15, 15}};
  uint8_t intra_dc_precision = 0;
  bool q_scale_type = false;
  bool alternate_scan = false;
  uint16_t temporal_reference = 0;

  mpeg2::PictureCodingExt to_pce() const;
  static PicInfo from(uint32_t index, const mpeg2::PictureHeader& ph,
                      const mpeg2::PictureCodingExt& pce);
};

// One run: the tile's share of one original slice. See file comment.
struct SpRun {
  // State Propagation Header -------------------------------------------------
  mpeg2::MbState state;       // decoder state entering this run
  uint8_t skip_bits = 0;      // 0..7 bits to skip at the start of payload
  uint32_t first_coded_addr = 0;
  uint16_t num_coded = 0;     // coded macroblocks in the payload
  uint32_t lead_skip_addr = 0;
  uint16_t lead_skip_count = 0;   // skips synthesized before the payload
  uint32_t trail_skip_addr = 0;
  uint16_t trail_skip_count = 0;  // skips synthesized after the payload
  // Payload: verbatim bytes of the partial slice. On the split path this is
  // a *view* into the coded picture's pooled buffer; on the decode path a
  // view into the SpMsg body — never a per-run copy.
  mem::Bytes payload;

  int macroblocks() const {
    return num_coded + lead_skip_count + trail_skip_count;
    // interior skips are counted by the decoder as it parses increments
  }
  size_t header_wire_bytes() const;
};

struct SubPicture {
  PicInfo info;
  std::vector<SpRun> runs;

  size_t wire_bytes() const;     // serialized size (what goes on the network)
  size_t payload_bytes() const;  // raw slice bytes only (no SPH overhead)

  void serialize(std::vector<uint8_t>* out) const;
  // Append the wire encoding to an existing writer (proto::pack_sp encodes
  // straight into a pooled SpMsg body this way).
  void serialize_into(ByteWriter* w) const;
  // Span flavour copies payloads; the Bytes flavour makes each run payload
  // a view into `data`'s block (the transport buffer stays pinned until the
  // last run dies).
  static SubPicture deserialize(std::span<const uint8_t> data);
  static SubPicture deserialize(const mem::Bytes& data);
};

// Sequence-level information distributed once by the root splitter.
struct StreamInfo {
  mpeg2::SequenceHeader seq;

  void serialize(std::vector<uint8_t>* out) const;
  static StreamInfo deserialize(std::span<const uint8_t> data);
};

}  // namespace pdw::core
