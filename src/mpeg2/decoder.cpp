#include "mpeg2/decoder.h"

#include <sstream>

#include "bitstream/bit_reader.h"
#include "mpeg2/conceal.h"
#include "mpeg2/headers.h"
#include "mpeg2/mb_parser.h"
#include "mpeg2/recon.h"

namespace pdw::mpeg2 {

namespace {

// Slice sink that reconstructs each macroblock into the current frame and
// marks it covered in the concealment plan.
class ReconSink final : public MbSink {
 public:
  ReconSink(const PictureContext& ctx, Frame* cur, const Frame* fwd,
            const Frame* bwd, ConcealPlanner* planner)
      : mb_width_(ctx.mb_width()),
        cur_(cur),
        planner_(planner),
        fwd_src_(fwd ? std::make_unique<FrameRefSource>(*fwd) : nullptr),
        bwd_src_(bwd ? std::make_unique<FrameRefSource>(*bwd) : nullptr) {}

  void on_macroblock(const Macroblock& mb, const MbState&, size_t,
                     size_t) override {
    const int mbx = mb.mb_x(mb_width_), mby = mb.mb_y(mb_width_);
    MacroblockPixels px;
    reconstruct_mb(mb, fwd_src_.get(), bwd_src_.get(), mbx, mby, &px);
    store_mb(cur_, mbx, mby, px);
    if (planner_) planner_->mark(mb.addr);
  }

  const RefSource* fwd_src() const { return fwd_src_.get(); }

 private:
  int mb_width_;
  Frame* cur_;
  ConcealPlanner* planner_;
  std::unique_ptr<FrameRefSource> fwd_src_, bwd_src_;
};

[[noreturn]] void throw_decode_error(const DecodeStatus& s) {
  std::ostringstream os;
  os << "bitstream damage: " << s;
  throw BitstreamError(os.str());
}

}  // namespace

void Mpeg2Decoder::decode(std::span<const uint8_t> es,
                          const FrameCallback& cb) {
  const std::vector<PictureSpan> spans = scan_pictures(es);
  for (const PictureSpan& ps : spans) decode_picture_span(es, ps, cb);
  flush(cb);
}

void Mpeg2Decoder::decode_picture_span(std::span<const uint8_t> es,
                                       const PictureSpan& ps,
                                       const FrameCallback& cb) {
  BitReader r(es.subspan(ps.begin, ps.end - ps.begin));
  const DecodeStatus s = decode_picture(r, ps.begin, ps.end, cb);
  if (!s.ok()) {
    if (policy_ == ErrorPolicy::kStrict) throw_decode_error(s);
    // kConceal: the picture was dropped whole; the next picture resyncs.
    ++concealed_;
  }
}

DecodeStatus Mpeg2Decoder::decode_picture(BitReader& r, size_t begin,
                                          size_t end,
                                          const FrameCallback& cb) {
  // Snapshot the sequence state: a damaged embedded sequence header must not
  // poison the geometry used for every following picture.
  const SequenceHeader seq_snapshot = seq_;
  const bool have_seq_snapshot = have_seq_;

  ParsedPictureHeaders headers;
  DecodeStatus hs = parse_picture_headers(r.data(), &seq_, &have_seq_, &headers);
  if (!hs.ok()) {
    seq_ = seq_snapshot;
    have_seq_ = have_seq_snapshot;
    return hs.escalate(DecodeSeverity::kPicture);
  }
  const PictureHeader& ph = headers.ph;

  const int w = seq_.mb_width() * kMbSize;
  const int h = seq_.mb_height() * kMbSize;

  // A dimension change relative to the live reference frames means either a
  // mid-GOP stream splice or a damaged sequence header; for a P/B picture
  // the references are unusable either way, so drop the picture.
  if (ph.type != PicType::I && ref_new_ &&
      (ref_new_->width() != w || ref_new_->height() != h)) {
    seq_ = seq_snapshot;
    have_seq_ = have_seq_snapshot;
    return DecodeStatus::error(DecodeErr::kBadStructure,
                               DecodeSeverity::kPicture, 0);
  }

  // Frame buffer management.
  const Frame* fwd = nullptr;
  const Frame* bwd = nullptr;
  if (ph.type == PicType::B) {
    if (!ref_old_ || !ref_new_)  // B picture without two references
      return DecodeStatus::error(DecodeErr::kBadStructure,
                                 DecodeSeverity::kPicture, 0);
    fwd = ref_old_.get();
    bwd = ref_new_.get();
  } else if (ph.type == PicType::P) {
    if (!ref_new_)  // P picture without reference
      return DecodeStatus::error(DecodeErr::kBadStructure,
                                 DecodeSeverity::kPicture, 0);
    fwd = ref_new_.get();
  }
  if (!cur_ || cur_->width() != w || cur_->height() != h)
    cur_ = std::make_unique<Frame>(w, h);
  // An I picture that changes dimensions restarts the sequence: the old
  // references are for another geometry.
  if (ph.type == PicType::I && ref_new_ &&
      (ref_new_->width() != w || ref_new_->height() != h)) {
    ref_old_.reset();
    ref_new_.reset();
    pending_ref_ = false;
  }

  PictureContext ctx;
  ctx.seq = &seq_;
  ctx.ph = headers.ph;
  ctx.pce = headers.pce;

  // Slice loop: walk the span's start codes from the first slice onward.
  std::span<const uint8_t> span = r.data();
  MbSyntaxDecoder syntax(ctx, ParseMode::kFull);
  ConcealPlanner planner;
  planner.begin(seq_.mb_width(), seq_.mb_height(), ctx.pce);
  ReconSink sink(ctx, cur_.get(), fwd, bwd,
                 policy_ == ErrorPolicy::kConceal ? &planner : nullptr);
  bool picture_had_error = false;
  size_t pos = headers.first_slice_offset;
  while (true) {
    const StartCodeHit hit = find_start_code(span, pos);
    if (hit.offset >= span.size()) break;
    pos = hit.offset + 4;
    if (!start_code::is_slice(hit.code)) continue;
    BitReader sr(span.subspan(hit.offset + 4));
    int mb_row = 0;
    int qscale = 0;
    DecodeStatus ss = parse_slice_header(sr, seq_, hit.code, &mb_row, &qscale);
    if (ss.ok()) {
      const MbSyntaxDecoder::SliceResult res =
          syntax.parse_slice_body(sr, mb_row, qscale, sink);
      ss = res.status;
    }
    if (!ss.ok()) {
      if (policy_ == ErrorPolicy::kStrict) return ss;
      // Conceal mode: resync at the next slice start code. The macroblocks
      // this slice failed to deliver stay unmarked in the plan and are
      // concealed below.
      ++dropped_slices_;
      picture_had_error = true;
    }
  }

  // Concealment pass: every macroblock no slice delivered — damaged slices,
  // slices whose start code itself was destroyed, rows missing entirely —
  // gets the standard concealment (zero-MV reference copy / flat fill).
  if (policy_ == ErrorPolicy::kConceal &&
      planner.covered_count() < planner.total()) {
    const std::vector<ConcealSpec> specs = planner.finish();
    for (const ConcealSpec& spec : specs) {
      MacroblockPixels px;
      conceal_mb(ph.type, sink.fwd_src(), spec, &px);
      store_mb(cur_.get(), spec.mb_x, spec.mb_y, px);
    }
    concealed_mbs_ += int(specs.size());
    picture_had_error = true;
  }
  if (picture_had_error) ++concealed_;

  const size_t coded_bytes = end - begin;
  ++decode_index_;

  // Display-order emission.
  if (ph.type == PicType::B) {
    emit(*cur_, ph.type, coded_bytes, cb);
  } else {
    if (pending_ref_) emit(*ref_new_, pending_ref_type_, pending_ref_bytes_, cb);
    // Current becomes the newest reference.
    std::swap(ref_old_, ref_new_);
    std::swap(ref_new_, cur_);
    pending_ref_ = true;
    pending_ref_type_ = ph.type;
    pending_ref_bytes_ = coded_bytes;
  }
  return DecodeStatus::success();
}

void Mpeg2Decoder::flush(const FrameCallback& cb) {
  if (pending_ref_) {
    emit(*ref_new_, pending_ref_type_, pending_ref_bytes_, cb);
    pending_ref_ = false;
  }
}

void Mpeg2Decoder::emit(const Frame& f, PicType type, size_t coded_bytes,
                        const FrameCallback& cb) {
  DecodedPictureInfo info;
  info.decode_index = decode_index_;
  info.display_index = display_index_++;
  info.type = type;
  info.coded_bytes = coded_bytes;
  if (cb) cb(f, info);
}

}  // namespace pdw::mpeg2
