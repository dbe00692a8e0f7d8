// Fuzz target: the macroblock-layer VLC parser — the hottest attack surface,
// since slice payloads are the bulk of any stream and every bit pattern is
// reachable. The first bytes pick a picture configuration; the rest is fed
// to the parser as a slice body and as a forced sub-picture run. The parser
// must latch a DecodeStatus on damage: no exception on the per-macroblock
// path, no out-of-bounds coefficient or motion state, no runaway loop.
//
// Every input runs through both parse modes. The splitter's kScan pass cuts
// runs from the same bits the tile decoders then parse in kFull, so the two
// must agree bit for bit: same status, same macroblocks with the same
// [bit_begin, bit_end), same final reader position.
#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/bit_reader.h"
#include "common/check.h"
#include "mpeg2/mb_parser.h"

using namespace pdw;

namespace {

struct RangeSink : mpeg2::MbSink {
  std::vector<size_t> bits;  // bit_begin, bit_end per macroblock
  void on_macroblock(const mpeg2::Macroblock&, const mpeg2::MbState&,
                     size_t bit_begin, size_t bit_end) override {
    bits.push_back(bit_begin);
    bits.push_back(bit_end);
  }
};

struct Outcome {
  DecodeStatus status;
  std::vector<size_t> bits;
  size_t end_pos;
};

void check_same(const Outcome& full, const Outcome& scan) {
  PDW_CHECK(full.status.code == scan.status.code);
  PDW_CHECK_EQ(full.status.bit_pos, scan.status.bit_pos);
  PDW_CHECK(full.bits == scan.bits);  // macroblock count and bit ranges
  PDW_CHECK_EQ(full.end_pos, scan.end_pos);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 4) return 0;

  mpeg2::SequenceHeader seq;
  seq.width = 64;  // 4x4 macroblocks: big enough for skips, small enough to
  seq.height = 64; // make address overruns one bit flip away
  mpeg2::PictureContext ctx;
  ctx.seq = &seq;
  switch (data[0] % 3) {
    case 0: ctx.ph.type = mpeg2::PicType::I; break;
    case 1: ctx.ph.type = mpeg2::PicType::P; break;
    default: ctx.ph.type = mpeg2::PicType::B; break;
  }
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t)
      ctx.pce.f_code[s][t] = uint8_t(1 + ((data[1] >> (2 * s + t)) & 3));
  ctx.pce.intra_dc_precision = data[2] & 3;
  ctx.pce.q_scale_type = (data[2] & 4) != 0;
  const int row = data[3] & 3;
  // quant_scale_code's contract is "comes from a slice header": a 5-bit
  // field validated to 1..31 (parse_slice_header rejects 0). Stay in range.
  const int quant = 1 + int(data[3] >> 3) % 31;

  const std::span<const uint8_t> payload(data + 4, size - 4);
  auto slice = [&](mpeg2::ParseMode mode) {
    mpeg2::MbSyntaxDecoder dec(ctx, mode);
    RangeSink sink;
    BitReader r(payload);
    const auto res = dec.parse_slice_body(r, row, quant, sink);
    return Outcome{res.status, std::move(sink.bits), r.bit_pos()};
  };
  // Sub-picture run driver with a forced first address, as the tile
  // decoders drive it.
  auto run = [&](mpeg2::ParseMode mode) {
    mpeg2::MbSyntaxDecoder dec(ctx, mode);
    mpeg2::MbState st;
    st.reset_dc(ctx.pce);
    st.quant_scale_code = uint8_t(quant);
    dec.load_state(st);
    RangeSink sink;
    BitReader r(payload);
    const DecodeStatus status =
        dec.parse_run(r, row * 4, 1 + (data[0] & 3), sink);
    return Outcome{status, std::move(sink.bits), r.bit_pos()};
  };
  check_same(slice(mpeg2::ParseMode::kFull), slice(mpeg2::ParseMode::kScan));
  check_same(run(mpeg2::ParseMode::kFull), run(mpeg2::ParseMode::kScan));
  return 0;
}
