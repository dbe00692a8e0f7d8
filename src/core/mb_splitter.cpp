#include "core/mb_splitter.h"

#include <algorithm>
#include <thread>

#include "bitstream/start_code.h"
#include "common/work_pool.h"
#include "mpeg2/conceal.h"
#include "mpeg2/headers.h"
#include "mpeg2/mb_parser.h"
#include "mpeg2/motion.h"
#include "obs/trace.h"

namespace pdw::core {

using namespace mpeg2;

namespace {

// Decode-cost model weights (arbitrary units alongside coded bits). Chosen so
// a motion-compensated macroblock with few coded bits still prices the
// interpolation work it causes; the planner only needs relative weight, and
// determinism matters more than calibration.
constexpr uint32_t kMbBaseCost = 32;  // recon/dequant floor, every macroblock
constexpr uint32_t kMcCost = 24;      // per used prediction direction

// Parts a picture's slices are cut into: up to one slice each, and enough
// that on a few cores a part of detailed slices holds up only the thread
// that claimed it while the others take the rest.
constexpr size_t kMaxParts = 16;

uint64_t exchange_key(int t, int s, int sx, int sy) {
  return (uint64_t(t) << 42) | (uint64_t(s) << 40) | (uint64_t(sy) << 20) |
         uint64_t(sx);
}

}  // namespace

// Sorting in place, rather than a hash set, lets the parts scan without
// heap allocation once their vectors have grown.
void MacroblockSplitter::keep_first_sightings(std::vector<Sighting>* v) {
  std::sort(v->begin(), v->end(), [](const Sighting& a, const Sighting& b) {
    return a.key != b.key ? a.key < b.key : a.order < b.order;
  });
  v->erase(std::unique(v->begin(), v->end(),
                       [](const Sighting& a, const Sighting& b) {
                         return a.key == b.key;
                       }),
           v->end());
  std::sort(v->begin(), v->end(), [](const Sighting& a, const Sighting& b) {
    return a.order < b.order;
  });
}

MacroblockSplitter::MacroblockSplitter(const wall::TileGeometry& geo, int node)
    : geo_(geo), node_(node) {}
MacroblockSplitter::~MacroblockSplitter() = default;

void MacroblockSplitter::set_stream_info(const StreamInfo& info) {
  PDW_CHECK_EQ(info.seq.mb_width(), geo_.mb_width())
      << "stream geometry does not match the wall";
  PDW_CHECK_EQ(info.seq.mb_height(), geo_.mb_height())
      << "stream geometry does not match the wall";
  seq_ = info.seq;
  have_seq_ = true;
}

// One contiguous range of a picture's slices, scanned on its own: run
// building and MEI pre-calculation happen in this sink while a syntax
// decoder scans each slice. Everything a part produces is in stream order
// within the part, so appending the parts in order reproduces the serial
// scan.
struct MacroblockSplitter::Part final : public MbSink {
  // Clear the previous picture's output, keeping the storage.
  void begin(const wall::TileGeometry& geo, const PictureContext& ctx,
             const mem::Bytes& picture) {
    geo_ = &geo;
    ctx_ = &ctx;
    picture_ = &picture;
    const size_t tiles = size_t(geo.tiles());
    builders_.assign(tiles, RunBuilder{});
    runs.resize(tiles);
    for (std::vector<SpRun>& r : runs) r.clear();
    exchanges.clear();
    delivered.clear();
    stats = SplitStats{};
    stats.mbs_per_tile.assign(tiles, 0);
    stats.cost_col.assign(size_t(geo.mb_width()), 0);
    stats.cost_row.assign(size_t(geo.mb_height()), 0);
  }

  // Scan the slices starting at `slices` (offsets of their start codes).
  void scan(std::span<const size_t> slices) {
    const std::span<const uint8_t> span = picture_->span();
    MbSyntaxDecoder syntax(*ctx_, ParseMode::kScan);
    for (const size_t offset : slices) {
      BitReader sr(span.subspan(offset + 4));
      int mb_row = 0;
      int qscale = 0;
      const DecodeStatus ss = parse_slice_header(
          sr, *ctx_->seq, span[offset + 3], &mb_row, &qscale);
      if (!ss.ok()) {
        // Slice header damage: resync at the next slice start code. The
        // missing macroblocks stay unmarked and become CONCEAL instructions.
        ++stats.dropped_slices;
        continue;
      }
      // Run payload bit positions must be relative to the whole picture
      // span: re-create the reader over the full span at the right offset.
      const size_t base_bits = (offset + 4) * 8 + sr.bit_pos();
      BitReader body(span, base_bits);
      const MbSyntaxDecoder::SliceResult res =
          syntax.parse_slice_body(body, mb_row, qscale, *this);
      // Flush even a partially built slice: the macroblocks emitted before
      // the damage are valid and the serial concealing decoder keeps them.
      end_slice();
      if (!res.status.ok()) ++stats.dropped_slices;
    }
    keep_first_sightings(&exchanges);
  }

  void on_macroblock(const Macroblock& mb, const MbState& before,
                     size_t bit_begin, size_t bit_end) override {
    const wall::TileGeometry& geo = *geo_;
    const PicType type = ctx_->ph.type;
    const int mbw = geo.mb_width();
    const int mbx = mb.mb_x(mbw);
    const int mby = mb.mb_y(mbw);
    ++stats.macroblocks;
    if (!mb.skipped) ++stats.coded_macroblocks;
    delivered.push_back(mb.addr);

    // --- Cost model ---------------------------------------------------------
    // Price this macroblock for the planner: its coded bits plus fixed
    // weights for the reconstruction and motion-compensation work it causes.
    {
      uint32_t cost =
          kMbBaseCost + (mb.skipped ? 0 : uint32_t(bit_end - bit_begin));
      if (!mb.intra() && type != PicType::I) {
        if (mb.has_fwd() || type == PicType::P) cost += kMcCost;
        if (mb.has_bwd()) cost += kMcCost;
      }
      stats.cost_col[size_t(mbx)] += cost;
      stats.cost_row[size_t(mby)] += cost;
    }

    const wall::MbTiles tiles = geo.tiles_of_mb(mbx, mby);

    // --- MEI pre-calculation ------------------------------------------------
    if (!mb.intra() && type != PicType::I) {
      const bool use_fwd = mb.has_fwd() || type == PicType::P;
      const bool use_bwd = mb.has_bwd();
      for (int s = 0; s < 2; ++s) {
        if (s == 0 ? !use_fwd : !use_bwd) continue;
        const SrcWindow win = luma_source_window(mb, s, mbx, mby);
        PDW_CHECK_GE(win.x0, 0) << "motion vector leaves picture";
        PDW_CHECK_GE(win.y0, 0);
        PDW_CHECK_LE(win.x1, geo.mb_width() * 16);
        PDW_CHECK_LE(win.y1, geo.mb_height() * 16);
        const int sx0 = win.x0 >> 4;
        const int sy0 = win.y0 >> 4;
        const int sx1 = (win.x1 - 1) >> 4;
        const int sy1 = (win.y1 - 1) >> 4;
        for (int t : tiles) {
          for (int sy = sy0; sy <= sy1; ++sy) {
            for (int sx = sx0; sx <= sx1; ++sx) {
              if (geo.tile_has_mb(t, sx, sy)) continue;  // local reference
              exchanges.push_back({exchange_key(t, s, sx, sy),
                                   uint32_t(exchanges.size())});
            }
          }
        }
      }
    }

    // --- Run building --------------------------------------------------------
    for (int t : tiles) {
      ++stats.mbs_per_tile[size_t(t)];
      RunBuilder& rb = builders_[size_t(t)];
      if (!rb.active) {
        rb.active = true;
        rb.entry_state = before;
      }
      if (mb.skipped) {
        if (!rb.has_coded) {
          if (rb.lead_skip_count == 0) rb.lead_skip_addr = uint32_t(mb.addr);
          ++rb.lead_skip_count;
        } else {
          if (rb.pending_skip_count == 0)
            rb.pending_skip_addr = uint32_t(mb.addr);
          ++rb.pending_skip_count;
        }
      } else {
        if (!rb.has_coded) {
          rb.has_coded = true;
          rb.first_coded_addr = uint32_t(mb.addr);
          rb.first_bit = bit_begin;
        }
        // Skips between coded macroblocks of the same tile are interior:
        // the decoder re-synthesizes them from the address increments that
        // are already in the copied payload.
        rb.pending_skip_count = 0;
        ++rb.num_coded;
        rb.last_bit_end = bit_end;
      }
    }
  }

  // Finalize all runs started in this slice.
  void end_slice() {
    for (size_t t = 0; t < builders_.size(); ++t) {
      RunBuilder& rb = builders_[t];
      if (!rb.active) continue;
      SpRun run;
      run.state = rb.entry_state;
      run.lead_skip_addr = rb.lead_skip_addr;
      run.lead_skip_count = rb.lead_skip_count;
      run.trail_skip_addr = rb.pending_skip_addr;
      run.trail_skip_count = rb.pending_skip_count;
      if (rb.has_coded) {
        run.first_coded_addr = rb.first_coded_addr;
        run.num_coded = rb.num_coded;
        run.skip_bits = uint8_t(rb.first_bit % 8);
        const size_t byte0 = rb.first_bit / 8;
        const size_t byte1 = (rb.last_bit_end + 7) / 8;
        PDW_CHECK_LE(byte1, picture_->size());
        // Verbatim bytes — no bit realignment (paper §4.3 / Figure 4) and
        // no copy: the run views the picture's pooled block directly.
        run.payload = picture_->view(byte0, byte1 - byte0);
      }
      runs[t].push_back(std::move(run));
      rb = RunBuilder{};
    }
  }

  // This part's output for the current picture.
  std::vector<std::vector<SpRun>> runs;  // per tile, in stream order
  // Exchanges that leave a tile, each at its first sighting in the part,
  // in stream order.
  std::vector<Sighting> exchanges;
  std::vector<int> delivered;  // macroblock addresses, in stream order
  SplitStats stats;            // partial: counts, per-tile counts, costs

 private:
  struct RunBuilder {
    bool active = false;
    bool has_coded = false;
    MbState entry_state;
    size_t first_bit = 0;
    size_t last_bit_end = 0;
    uint32_t first_coded_addr = 0;
    uint16_t num_coded = 0;
    uint32_t lead_skip_addr = 0;
    uint16_t lead_skip_count = 0;
    uint32_t pending_skip_addr = 0;
    uint16_t pending_skip_count = 0;
  };

  const wall::TileGeometry* geo_ = nullptr;
  const PictureContext* ctx_ = nullptr;
  const mem::Bytes* picture_ = nullptr;
  std::vector<RunBuilder> builders_;
};

SplitResult MacroblockSplitter::split(std::span<const uint8_t> picture_span,
                                      uint32_t pic_index) {
  return split(mem::Bytes::copy_of(picture_span), pic_index);
}

SplitResult MacroblockSplitter::split(const mem::Bytes& picture,
                                      uint32_t pic_index) {
  return split(picture, pic_index, geo_);
}

SplitResult MacroblockSplitter::split(
    const mem::Bytes& picture, uint32_t pic_index,
    const wall::TileGeometry& geo,
    const std::function<void()>& between_parts) {
  const std::span<const uint8_t> picture_span = picture.span();
  SplitResult result;
  result.stats.input_bytes = picture_span.size();

  // A damaged embedded sequence header must not poison the geometry for
  // every following picture: snapshot, and restore on any picture-level
  // failure.
  const SequenceHeader seq_snapshot = seq_;
  const bool have_seq_snapshot = have_seq_;

  ParsedPictureHeaders headers;
  DecodeStatus hs =
      parse_picture_headers(picture_span, &seq_, &have_seq_, &headers);
  if (hs.ok() && (seq_.mb_width() != geo.mb_width() ||
                  seq_.mb_height() != geo.mb_height())) {
    // The span's embedded sequence header disagrees with the wall geometry:
    // either stream damage or a mid-stream dimension change, and a fixed
    // m*n wall can render neither. Drop the picture.
    hs = DecodeStatus::error(DecodeErr::kBadStructure, DecodeSeverity::kPicture,
                             0);
  }
  if (!hs.ok()) {
    seq_ = seq_snapshot;
    have_seq_ = have_seq_snapshot;
    result.status = hs.escalate(DecodeSeverity::kPicture);
    return result;
  }

  PictureContext ctx;
  ctx.seq = &seq_;
  ctx.ph = headers.ph;
  ctx.pce = headers.pce;

  result.info = PicInfo::from(pic_index, headers.ph, headers.pce);
  result.subpictures.resize(size_t(geo.tiles()));
  result.mei.resize(size_t(geo.tiles()));
  for (int t = 0; t < geo.tiles(); ++t) {
    result.subpictures[size_t(t)].info = result.info;
    // One run per slice the tile intersects; slices are per macroblock row,
    // so the tile's MB-row count is the expected run count — reserving it
    // keeps the runs vector from reallocating mid-split.
    const wall::MbRect& mbs = geo.tile_mbs(t);
    result.subpictures[size_t(t)].runs.reserve(size_t(mbs.y1 - mbs.y0));
  }

  // List the slices, cut them into contiguous parts and scan the parts on
  // the pool. The slice list does not depend on how the slices parse, so
  // the parts see exactly the slices one serial pass would.
  slices_.clear();
  for (size_t pos = headers.first_slice_offset;;) {
    const StartCodeHit hit = find_start_code(picture_span, pos);
    if (hit.offset >= picture_span.size()) break;
    pos = hit.offset + 4;
    if (start_code::is_slice(hit.code)) slices_.push_back(hit.offset);
  }
  const size_t parts = std::min(slices_.size(), kMaxParts);
  if (parts_.size() < parts) parts_.resize(parts);
  const std::thread::id caller = std::this_thread::get_id();
  auto scan_part = [&](int i) {
    {
      PDW_TRACE_SPAN(obs::span::kSplitPart, node_, pic_index);
      const size_t first = slices_.size() * size_t(i) / parts;
      const size_t end = slices_.size() * size_t(i + 1) / parts;
      Part& part = parts_[size_t(i)];
      part.begin(geo, ctx, picture);
      part.scan(std::span<const size_t>(slices_).subspan(first, end - first));
    }
    if (between_parts && std::this_thread::get_id() == caller)
      between_parts();
  };
  WorkPool::global().run(int(parts), scan_part);

  // Merge in stream order: runs append, every delivered macroblock is
  // covered, and an exchange counts at its first sighting in the picture,
  // which is its first sighting in the earliest part that holds it.
  ConcealPlanner planner;
  planner.begin(seq_.mb_width(), seq_.mb_height(), ctx.pce);
  SplitStats& stats = result.stats;
  stats.mbs_per_tile.assign(size_t(geo.tiles()), 0);
  stats.cost_col.assign(size_t(geo.mb_width()), 0);
  stats.cost_row.assign(size_t(geo.mb_height()), 0);
  exchanges_.clear();
  for (size_t i = 0; i < parts; ++i) {
    Part& part = parts_[i];
    for (size_t t = 0; t < part.runs.size(); ++t) {
      std::vector<SpRun>& runs = result.subpictures[t].runs;
      for (SpRun& run : part.runs[t]) runs.push_back(std::move(run));
      part.runs[t].clear();  // drop the moved-from views now
    }
    for (const Sighting& e : part.exchanges)
      exchanges_.push_back({e.key, uint32_t(exchanges_.size())});
    for (int addr : part.delivered) planner.mark(addr);
    const SplitStats& ps = part.stats;
    stats.macroblocks += ps.macroblocks;
    stats.coded_macroblocks += ps.coded_macroblocks;
    stats.dropped_slices += ps.dropped_slices;
    for (size_t t = 0; t < stats.mbs_per_tile.size(); ++t)
      stats.mbs_per_tile[t] += ps.mbs_per_tile[t];
    for (size_t x = 0; x < stats.cost_col.size(); ++x)
      stats.cost_col[x] += ps.cost_col[x];
    for (size_t y = 0; y < stats.cost_row.size(); ++y)
      stats.cost_row[y] += ps.cost_row[y];
  }

  keep_first_sightings(&exchanges_);
  for (const Sighting& e : exchanges_) {
    const int t = int(e.key >> 42);
    const int s = int(e.key >> 40) & 3;
    const int sy = int(e.key >> 20) & 0xFFFFF;
    const int sx = int(e.key) & 0xFFFFF;
    const int owner = geo.owner_of_mb(sx, sy);
    PDW_CHECK_NE(owner, t);
    result.mei[size_t(t)].push_back({MeiOp::kRecv, uint8_t(s), uint16_t(sx),
                                     uint16_t(sy), uint16_t(owner)});
    result.mei[size_t(owner)].push_back({MeiOp::kSend, uint8_t(s),
                                         uint16_t(sx), uint16_t(sy),
                                         uint16_t(t)});
    ++stats.exchange_pairs;
  }

  // Concealment plan: every macroblock no slice delivered becomes a CONCEAL
  // instruction on every tile whose rectangle (including projector overlap)
  // contains it — the exact plan a serial concealing decoder executes.
  if (planner.covered_count() < planner.total()) {
    for (const ConcealSpec& spec : planner.finish()) {
      for (int t : geo.tiles_of_mb(spec.mb_x, spec.mb_y))
        result.mei[size_t(t)].push_back(make_conceal(
            spec.mb_x, spec.mb_y, spec.fill_y, spec.fill_cb, spec.fill_cr));
      ++stats.concealed_macroblocks;
    }
  }

  for (int t = 0; t < geo.tiles(); ++t) {
    stats.output_bytes += result.subpictures[size_t(t)].wire_bytes();
    stats.output_bytes += 4 + result.mei[size_t(t)].size() * kMeiWireBytes;
  }
  return result;
}

}  // namespace pdw::core
