#include "core/tile_decoder.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "bitstream/bit_reader.h"
#include "common/work_pool.h"
#include "mpeg2/conceal.h"
#include "mpeg2/mb_parser.h"
#include "mpeg2/motion.h"
#include "mpeg2/recon.h"
#include "obs/trace.h"

namespace pdw::core {

using namespace mpeg2;

namespace {

MacroblockPixels gray_mb() {
  MacroblockPixels px;
  std::memset(px.y, 128, sizeof(px.y));
  std::memset(px.cb, 128, sizeof(px.cb));
  std::memset(px.cr, 128, sizeof(px.cr));
  return px;
}

}  // namespace

RefWindow TileRefSource::window(int c, int x, int y, int w, int h,
                                uint8_t* scratch) const {
  read_ = true;
  if (tf_ != nullptr && tf_->contains_rect(c, x, y, w, h))
    return {tf_->pixel(c, x, y), tf_->plane(c).width()};
  gather(c, x, y, w, h, scratch);
  return {scratch, kScratchStride};
}

void TileRefSource::gather(int c, int x, int y, int w, int h,
                           uint8_t* dst) const {
  const int stride = kScratchStride;
  if (tf_ == nullptr) {
    for (int r = 0; r < h; ++r)
      std::memset(dst + size_t(r) * stride, 128, size_t(w));
    return;
  }
  const int mb_edge = c == 0 ? 16 : 8;  // macroblock edge in this plane
  for (int r = 0; r < h; ++r) {
    const int gy = y + r;
    const int mby = gy / mb_edge;
    int gx = x;
    int out = 0;
    while (out < w) {
      const int mbx = gx / mb_edge;
      // Columns remaining inside this macroblock's horizontal extent.
      const int take = std::min(w - out, (mbx + 1) * mb_edge - gx);
      const uint8_t* src = nullptr;
      if (tf_->contains_mb(mbx, mby)) {
        src = tf_->pixel(c, gx, gy);
      } else {
        const HaloCache::Entry* e = halo_->find(mbx, mby);
        if (e == nullptr) {
          if (policy_ == HaloPolicy::kStrict) {
            PDW_CHECK(e != nullptr)
                << "missing halo macroblock (" << mbx << "," << mby
                << ") plane " << c << " — MEI pre-calculation incomplete";
          }
          concealed_ = true;
          std::memset(dst + size_t(r) * stride + out, 128, size_t(take));
          gx += take;
          out += take;
          continue;
        }
        if (e->tainted) concealed_ = true;
        const int ox = gx - mbx * mb_edge;
        const int oy = gy - mby * mb_edge;
        const uint8_t* base =
            c == 0 ? e->px.y : (c == 1 ? e->px.cb : e->px.cr);
        src = base + oy * mb_edge + ox;
      }
      std::memcpy(dst + size_t(r) * stride + out, src, size_t(take));
      gx += take;
      out += take;
    }
  }
}

namespace {

// Sink reconstructing one band's macroblocks into the tile frame. Only
// macroblocks inside the band's rows of the tile rect are materialized; the
// syntax decoder may synthesize interior skips that belong to this tile by
// construction, so everything the sink sees is in-rect and, since runs are
// row-local, in-band (both CHECKed: no band writes another band's rows).
class TileReconSink final : public MbSink {
 public:
  TileReconSink(const PictureContext& ctx, const wall::MbRect& rect,
                int band_y0, int band_y1, TileFrame* cur, uint8_t* seen,
                const RefSource* fwd, const RefSource* bwd)
      : ctx_(ctx),
        rect_(rect),
        band_y0_(band_y0),
        band_y1_(band_y1),
        cur_(cur),
        seen_(seen),
        fwd_(fwd),
        bwd_(bwd) {}

  void on_macroblock(const Macroblock& mb, const MbState&, size_t,
                     size_t) override {
    const int mbx = mb.mb_x(ctx_.mb_width());
    const int mby = mb.mb_y(ctx_.mb_width());
    PDW_CHECK(rect_.contains(mbx, mby))
        << "sub-picture macroblock (" << mbx << "," << mby
        << ") outside tile rect";
    PDW_CHECK(mby >= band_y0_ && mby < band_y1_)
        << "sub-picture macroblock (" << mbx << "," << mby
        << ") outside its run's row band";
    MacroblockPixels px;
    reconstruct_mb(mb, fwd_, bwd_, mbx, mby, &px);
    cur_->insert_mb(mbx, mby, px);
    // Unique-position count: a damaged slice header can re-claim a row that
    // an earlier slice already delivered. The serial decoder just overwrites
    // (last slice wins), so the tile does too, and completeness is about
    // coverage, not delivery count.
    uint8_t& seen = seen_[size_t(mby - rect_.y0) * size_t(rect_.x1 - rect_.x0) +
                          size_t(mbx - rect_.x0)];
    if (!seen) {
      seen = 1;
      ++count_;
    }
  }

  int count() const { return count_; }

 private:
  const PictureContext& ctx_;
  const wall::MbRect& rect_;
  int band_y0_, band_y1_;
  TileFrame* cur_;
  uint8_t* seen_;
  const RefSource* fwd_;
  const RefSource* bwd_;
  int count_ = 0;
};

// First macroblock address a run touches; every macroblock of a run lies in
// this address's row.
int first_addr(const SpRun& run) {
  if (run.lead_skip_count > 0) return int(run.lead_skip_addr);
  if (run.num_coded > 0) return int(run.first_coded_addr);
  return int(run.trail_skip_addr);
}

// The splitter scan-validated exactly these bits: a parse failure here is
// an internal invariant violation (splitter/decoder divergence), not stream
// damage, so it stays a hard CHECK.
void decode_run(const SpRun& run, MbSyntaxDecoder& syntax, MbSink& sink) {
  syntax.load_state(run.state);
  if (run.lead_skip_count > 0)
    PDW_CHECK(syntax.synthesize_skipped(int(run.lead_skip_addr),
                                        int(run.lead_skip_count), sink));
  if (run.num_coded > 0) {
    BitReader r(run.payload, run.skip_bits);
    const DecodeStatus st = syntax.parse_run(r, int(run.first_coded_addr),
                                             int(run.num_coded), sink);
    PDW_CHECK(st.ok()) << "sub-picture run failed to parse: " << st;
  }
  if (run.trail_skip_count > 0)
    PDW_CHECK(syntax.synthesize_skipped(int(run.trail_skip_addr),
                                        int(run.trail_skip_count), sink));
}

// Bands per pool thread: enough that a band of detailed rows holds up only
// the thread that claimed it while the others take the rest.
constexpr int kBandsPerThread = 4;
constexpr int kMaxBands = 64;

}  // namespace

TileDecoder::TileDecoder(const wall::TileGeometry& geo, int tile,
                         const StreamInfo& info, HaloPolicy policy, int node)
    : geo_(&geo),
      tile_(tile),
      seq_(info.seq),
      rect_(geo.tile_mbs(tile)),
      epoch_(geo.epoch()),
      policy_(policy),
      node_(node) {
  PDW_CHECK_EQ(seq_.mb_width(), geo.mb_width());
  PDW_CHECK_EQ(seq_.mb_height(), geo.mb_height());
}

TileDecoder::~TileDecoder() = default;

void TileDecoder::rebase(const wall::TileGeometry& geo) {
  PDW_CHECK_EQ(seq_.mb_width(), geo.mb_width());
  PDW_CHECK_EQ(seq_.mb_height(), geo.mb_height());
  geo_ = &geo;
  rect_ = geo.tile_mbs(tile_);
  epoch_ = geo.epoch();
  // The scratch frame (if any) has the old rect; drop it so the next decode
  // allocates in the new one. Reference frames stay — each carries its own
  // rect, and the pending one still owes the wall a display emission.
  cur_.reset();
  halo_[0].clear();
  halo_[1].clear();
  staged_conceals_.clear();
}

MacroblockPixels TileDecoder::extract_for_send(const PicInfo& pic,
                                               const MeiInstruction& instr,
                                               bool* tainted) const {
  PDW_CHECK(instr.op == MeiOp::kSend);
  // Map the instruction's logical reference to a physical frame for the
  // picture about to be decoded: P uses (fwd = newest I/P); B uses
  // (fwd = older, bwd = newest).
  const bool old_ref = pic.type == PicType::B && instr.ref == 0;
  const TileFrame* src = old_ref ? ref_old_.get() : ref_new_.get();
  if (src == nullptr) {
    PDW_CHECK(policy_ == HaloPolicy::kConceal)
        << "SEND before reference frames exist";
    if (tainted) *tainted = true;
    return gray_mb();
  }
  if (tainted) *tainted = old_ref ? taint_old_ : taint_new_;
  return src->extract_mb(instr.mb_x, instr.mb_y);
}

void TileDecoder::add_halo_mb(const MeiInstruction& instr,
                              const MacroblockPixels& px, bool tainted) {
  PDW_CHECK_LE(int(instr.ref), 1);
  halo_[instr.ref].insert(instr.mb_x, instr.mb_y, px, tainted);
}

void TileDecoder::stage_conceal(const MeiInstruction& instr) {
  PDW_CHECK(instr.op == MeiOp::kConceal);
  PDW_CHECK(rect_.contains(instr.mb_x, instr.mb_y))
      << "CONCEAL (" << instr.mb_x << "," << instr.mb_y
      << ") outside tile rect";
  staged_conceals_.push_back(instr);
}

void TileDecoder::emit(const TileFrame& frame, const TileDisplayInfo& info,
                       const DisplayFn& display) {
  if (info.display_index < 0) return;  // slot before this decoder's stream
  if (!last_shown_)
    last_shown_ = std::make_unique<TileFrame>(frame);
  else
    *last_shown_ = frame;
  last_shown_epoch_ = info.epoch;
  if (display) display(frame, info);
}

void TileDecoder::emit_frozen(int slot, const DisplayFn& display) {
  if (slot < 0) return;
  if (!last_shown_) {
    // Nothing was ever shown: freeze to mid-gray.
    last_shown_ =
        std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);
    last_shown_->y().fill(128);
    last_shown_->cb().fill(128);
    last_shown_->cr().fill(128);
    last_shown_epoch_ = epoch_;
  }
  TileDisplayInfo info;
  info.pic_index = uint32_t(slot + 1);
  info.display_index = slot;
  info.type = PicType::P;
  info.degraded = true;
  info.epoch = last_shown_epoch_;  // the frozen frame's rect, not today's
  if (display) display(*last_shown_, info);
}

void TileDecoder::decode(const SubPicture& sp, const DisplayFn& display) {
  PictureContext ctx;
  ctx.seq = &seq_;
  ctx.ph.type = sp.info.type;
  ctx.ph.temporal_reference = sp.info.temporal_reference;
  ctx.pce = sp.info.to_pce();

  // The reference rotation below recycles retired frames as scratch; after a
  // rebase a recycled frame still carries the previous epoch's rect.
  if (cur_ && (cur_->mb_x0() != rect_.x0 || cur_->mb_y0() != rect_.y0 ||
               cur_->mb_x1() != rect_.x1 || cur_->mb_y1() != rect_.y1))
    cur_.reset();
  if (!cur_)
    cur_ = std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);

  // The references this picture reads: [0] forward, [1] backward. Under
  // kConceal a missing frame reads as gray instead of aborting.
  const TileFrame* ref[2] = {nullptr, nullptr};
  bool ref_taint[2] = {false, false};
  if (sp.info.type == PicType::P) {
    if (policy_ == HaloPolicy::kStrict) PDW_CHECK(ref_new_) << "P without ref";
    ref[0] = ref_new_.get();
    ref_taint[0] = taint_new_;
  } else if (sp.info.type == PicType::B) {
    if (policy_ == HaloPolicy::kStrict)
      PDW_CHECK(ref_old_ && ref_new_) << "B without two references";
    ref[0] = ref_old_.get();
    ref_taint[0] = taint_old_;
    ref[1] = ref_new_.get();
    ref_taint[1] = taint_new_;
  }
  const bool has_fwd = sp.info.type != PicType::I;
  const bool has_bwd = sp.info.type == PicType::B;

  // Cut the tile's rows into bands of whole rows. A run belongs to the band
  // of its row (clamped, so a run outside the rect still reaches the sink's
  // rect CHECK); each band remembers the span of run indices holding its
  // runs, and walks it in stream order.
  WorkPool& pool = WorkPool::global();
  const int rows = rect_.y1 - rect_.y0;
  const int threads = pool.workers() + 1;
  const int want =
      threads == 1 ? 1 : std::min(kBandsPerThread * threads, kMaxBands);
  const int target = std::min(rows, want);
  const int band_rows = (rows + target - 1) / target;
  const int bands = (rows + band_rows - 1) / band_rows;
  const int mbw = seq_.mb_width();
  auto band_of = [&](const SpRun& run) {
    return std::clamp((first_addr(run) / mbw - rect_.y0) / band_rows, 0,
                      bands - 1);
  };
  struct Band {
    size_t first_run = SIZE_MAX, end_run = 0;
    int count = 0;  // macroblock positions first covered by this band
    bool tainted = false;
  };
  std::array<Band, kMaxBands> band{};
  for (size_t k = 0; k < sp.runs.size(); ++k) {
    Band& b = band[size_t(band_of(sp.runs[k]))];
    b.first_run = std::min(b.first_run, k);
    b.end_run = k + 1;
  }

  seen_.assign(size_t(rect_.count()), 0);
  auto decode_band = [&](int i) {
    PDW_TRACE_SPAN(obs::span::kDecodeBand, node_, sp.info.pic_index);
    Band& b = band[size_t(i)];
    const TileRefSource fwd(ref[0], halo_[0], policy_, ref_taint[0]);
    const TileRefSource bwd(ref[1], halo_[1], policy_, ref_taint[1]);
    MbSyntaxDecoder syntax(ctx, ParseMode::kFull);
    const int y0 = rect_.y0 + i * band_rows;
    TileReconSink sink(ctx, rect_, y0, std::min(rect_.y1, y0 + band_rows),
                       cur_.get(), seen_.data(), has_fwd ? &fwd : nullptr,
                       has_bwd ? &bwd : nullptr);
    for (size_t k = b.first_run; k < b.end_run; ++k)
      if (band_of(sp.runs[k]) == i) decode_run(sp.runs[k], syntax, sink);
    b.count = sink.count();
    b.tainted = fwd.tainted() || bwd.tainted();
  };
  pool.run(bands, decode_band);

  // Execute the concealment plan for macroblocks no slice delivered. The
  // zero-MV window is the macroblock's own footprint, inside the tile rect,
  // so concealment never needs halo pixels.
  const TileRefSource conceal_fwd(ref[0], halo_[0], policy_, ref_taint[0]);
  for (const MeiInstruction& instr : staged_conceals_) {
    ConcealSpec spec;
    spec.mb_x = instr.mb_x;
    spec.mb_y = instr.mb_y;
    spec.fill_y = conceal_fill_y(instr);
    spec.fill_cb = conceal_fill_cb(instr);
    spec.fill_cr = conceal_fill_cr(instr);
    MacroblockPixels px;
    conceal_mb(sp.info.type, has_fwd ? &conceal_fwd : nullptr, spec, &px);
    cur_->insert_mb(spec.mb_x, spec.mb_y, px);
  }
  last_conceal_count_ = int(staged_conceals_.size());
  staged_conceals_.clear();

  // Completeness: the whole tile rect must have been reconstructed, whether
  // from parsed syntax or from the concealment plan.
  int count = 0;
  bool tainted = conceal_fwd.tainted();
  for (int i = 0; i < bands; ++i) {
    count += band[size_t(i)].count;
    tainted |= band[size_t(i)].tainted;
  }
  PDW_CHECK_EQ(count + last_conceal_count_, rect_.count())
      << "tile " << tile_ << " picture " << sp.info.pic_index;
  last_mb_count_ = count;
  last_halo_count_ = halo_[0].size() + halo_[1].size();
  halo_[0].clear();
  halo_[1].clear();

  last_pic_index_ = int64_t(sp.info.pic_index);

  // Display-order emission, mirroring the serial decoder but with stateless
  // slots: anything this picture triggers displays at slot pic_index - 1.
  const int slot = int(sp.info.pic_index) - 1;
  TileDisplayInfo info;
  info.pic_index = sp.info.pic_index;
  info.type = sp.info.type;
  info.degraded = tainted;
  info.epoch = epoch_;
  if (sp.info.type == PicType::B) {
    info.display_index = slot;
    emit(*cur_, info, display);
  } else {
    if (pending_ref_) {
      pending_info_.display_index = slot;
      emit(*ref_new_, pending_info_, display);
    } else if (pending_hole_) {
      emit_frozen(slot, display);
    }
    pending_hole_ = false;
    std::swap(ref_old_, ref_new_);
    std::swap(taint_old_, taint_new_);
    std::swap(ref_new_, cur_);
    taint_new_ = tainted;
    if (!cur_)
      cur_ =
          std::make_unique<TileFrame>(rect_.x0, rect_.y0, rect_.x1, rect_.y1);
    pending_ref_ = true;
    pending_info_ = info;
  }
}

void TileDecoder::skip_picture(uint32_t pic_index, const DisplayFn& display) {
  last_pic_index_ = int64_t(pic_index);
  halo_[0].clear();  // any halo/conceal staged for the lost picture is stale
  halo_[1].clear();
  staged_conceals_.clear();
  const int slot = int(pic_index) - 1;
  if (pending_ref_) {
    pending_info_.display_index = slot;
    pending_info_.degraded = true;  // displaced into the lost picture's slot
    emit(*ref_new_, pending_info_, display);
    pending_ref_ = false;
    pending_hole_ = true;
  } else {
    emit_frozen(slot, display);
  }
  // The lost picture may have been a reference; everything predicted from
  // here is suspect until the next I picture re-anchors the taint state.
  taint_old_ = taint_new_ = true;
}

void TileDecoder::flush(const DisplayFn& display) {
  const int slot = int(last_pic_index_);
  if (pending_ref_) {
    pending_info_.display_index = slot;
    emit(*ref_new_, pending_info_, display);
    pending_ref_ = false;
  } else if (pending_hole_) {
    emit_frozen(slot, display);
    pending_hole_ = false;
  }
}

}  // namespace pdw::core
