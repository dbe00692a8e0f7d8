#include "baseline/levels.h"

#include <algorithm>
#include <limits>

#include "common/timing.h"
#include "core/config.h"
#include "core/lockstep.h"
#include "mpeg2/decoder.h"

namespace pdw::baseline {

using sim::LinkModel;

const char* level_name(ParallelLevel level) {
  switch (level) {
    case ParallelLevel::kSequence: return "sequence";
    case ParallelLevel::kGop: return "GOP";
    case ParallelLevel::kPicture: return "picture";
    case ParallelLevel::kSlice: return "slice";
    case ParallelLevel::kMacroblock: return "macroblock 1-(m,n)";
    case ParallelLevel::kHierarchical: return "hierarchical 1-k-(m,n)";
  }
  return "?";
}

StreamMeasurements measure_stream(std::span<const uint8_t> es,
                                  const wall::TileGeometry& geo) {
  StreamMeasurements m;

  // Start-code scan cost (what sequence/GOP/picture/slice splitting needs).
  // Best of three passes, as below: a pass takes tens of microseconds, so
  // one preemption would inflate it a hundredfold.
  {
    std::vector<PictureSpan> spans;
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      spans = scan_pictures(es);
      best = std::min(best, timer.seconds());
    }
    m.pictures = int(spans.size());
    m.t_scan = best / std::max(1, m.pictures);
    for (const auto& s : spans) {
      m.gops += s.has_gop_header ? 1 : 0;
      m.avg_picture_bytes += double(s.end - s.begin);
    }
    m.avg_picture_bytes /= std::max(1, m.pictures);
  }

  // Serial decode cost and reference-chain length. Two passes, keeping the
  // faster: on a loaded machine a single pass can be preempted mid-picture
  // and report a wildly inflated cost.
  {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      mpeg2::Mpeg2Decoder dec;
      int ip = 0;
      WallTimer timer;
      dec.decode(es,
                 [&](const mpeg2::Frame&, const mpeg2::DecodedPictureInfo& i) {
                   if (i.type != mpeg2::PicType::B) ++ip;
                 });
      best = std::min(best, timer.seconds());
      m.ip_pictures = ip;
    }
    m.t_full_decode = best / std::max(1, m.pictures);
  }
  m.frame_pixel_bytes = 1.5 * double(geo.mb_width() * 16) *
                        double(geo.mb_height() * 16);

  // Macroblock-level split cost + exchange traffic on the target (m,n) wall.
  // Timings are best-of-two passes (same rationale as above); the exchange
  // byte counts are deterministic, so one pass records them.
  {
    double best_split = std::numeric_limits<double>::infinity();
    double best_tile = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 2; ++rep) {
      core::LockstepPipeline pipeline(geo, 1, es);
      double split = 0, tile_max = 0, exchange = 0;
      int n = 0;
      pipeline.run(nullptr, [&](const core::PictureTrace& tr) {
        split += tr.split_s;
        double mx = 0;
        for (double d : tr.decode_s) mx = std::max(mx, d);
        tile_max += mx;
        for (uint64_t b : tr.exchange_bytes) exchange += double(b);
        ++n;
      });
      best_split = std::min(best_split, split / std::max(1, n));
      best_tile = std::min(best_tile, tile_max / std::max(1, n));
      m.mb_exchange_bytes = exchange / std::max(1, n);
    }
    m.t_mb_split = best_split;
    m.t_tile_decode = best_tile;
  }

  // Band (slice-level) remote-reference traffic: same analysis with the
  // picture cut into T horizontal bands (adjacent slices grouped together).
  if (geo.tiles() > 1 && geo.mb_height() >= geo.tiles()) {
    wall::TileGeometry bands(geo.mb_width() * 16, geo.mb_height() * 16, 1,
                             geo.tiles(), 0);
    core::LockstepPipeline pipeline(bands, 1, es);
    double exchange = 0;
    int n = 0;
    pipeline.run(nullptr, [&](const core::PictureTrace& tr) {
      for (uint64_t b : tr.exchange_bytes) exchange += double(b);
      ++n;
    });
    m.band_exchange_bytes = exchange / std::max(1, n);
  }
  return m;
}

std::vector<LevelReport> compare_levels(std::span<const uint8_t> es,
                                        const wall::TileGeometry& geo,
                                        const LinkModel& link) {
  const StreamMeasurements m = measure_stream(es, geo);
  const int T = geo.tiles();
  const int mcols = geo.m();
  std::vector<LevelReport> out;

  const double redist_full =
      m.frame_pixel_bytes * double(T - 1) / double(std::max(1, T));
  const double redist_band =
      m.frame_pixel_bytes * double(mcols - 1) / double(std::max(1, mcols));

  // --- Sequence level --------------------------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kSequence;
    r.split_s_per_picture = m.t_scan;
    r.interdecoder_bytes = 0;
    r.redistribution_bytes = redist_full;
    // One sequence in the stream: a single decoder does everything, then
    // ships (T-1)/T of each frame to the wall.
    r.fps = 1.0 / (m.t_full_decode + link.transfer_s(size_t(redist_full)));
    r.notes = "single sequence: no parallelism, full redistribution";
    out.push_back(r);
  }

  // --- GOP level --------------------------------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kGop;
    r.split_s_per_picture = m.t_scan;
    r.interdecoder_bytes = 0;  // closed GOPs are self-contained
    r.redistribution_bytes = redist_full;
    // T decoders on T different GOPs; per-picture node cost is a full decode
    // plus shipping the frame; throughput scales with min(T, #GOPs).
    const double per_pic =
        m.t_full_decode + link.transfer_s(size_t(redist_full));
    const double parallelism = std::min<double>(T, std::max(1, m.gops));
    r.fps = std::min(parallelism / per_pic, 1.0 / m.t_scan);
    r.notes = "latency ~ GOP length; needs closed GOPs";
    out.push_back(r);
  }

  // --- Picture level -----------------------------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kPicture;
    r.split_s_per_picture = m.t_scan;
    // Decoding a P/B picture on another node means fetching whole reference
    // pictures: on average (I+P chain) each picture pulls ~1 reference, B
    // pictures pull 2. Approximate with decoded-frame bytes per picture.
    const double refs_per_picture =
        m.pictures > 0
            ? (double(m.ip_pictures - 1) + 2.0 * (m.pictures - m.ip_pictures)) /
                  m.pictures
            : 0.0;
    r.interdecoder_bytes = refs_per_picture * m.frame_pixel_bytes;
    r.redistribution_bytes = redist_full;
    // The I/P reference chain serializes: consecutive references cannot be
    // decoded concurrently, so at best (pictures / IP-pictures) pictures
    // progress per (decode + ref transfer) step.
    const double chain_ratio =
        m.ip_pictures > 0 ? double(m.pictures) / m.ip_pictures : 1.0;
    const double step =
        m.t_full_decode + link.transfer_s(size_t(m.frame_pixel_bytes));
    const double chain_fps = chain_ratio / step;
    const double node_fps =
        double(T) / (m.t_full_decode +
                     link.transfer_s(size_t(r.interdecoder_bytes / T +
                                            redist_full)));
    r.fps = std::min({chain_fps, node_fps, 1.0 / m.t_scan});
    r.notes = "reference chain serializes I/P decode";
    out.push_back(r);
  }

  // --- Slice level --------------------------------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kSlice;
    r.split_s_per_picture = m.t_scan;  // slices have start codes
    r.interdecoder_bytes = m.band_exchange_bytes;
    r.redistribution_bytes = redist_band;
    // All T decoders work on one picture (a horizontal band each); each then
    // redistributes (m-1)/m of its band across the tile columns.
    const double per_node =
        m.t_full_decode / T +
        link.transfer_s(size_t((m.band_exchange_bytes + redist_band) / T));
    r.fps = std::min(1.0 / per_node, 1.0 / m.t_scan);
    r.notes = "bands of grouped slices; moderate comm";
    out.push_back(r);
  }

  // --- Macroblock level (one-level 1-(m,n)) -------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kMacroblock;
    r.split_s_per_picture = m.t_mb_split;
    r.interdecoder_bytes = m.mb_exchange_bytes;
    r.redistribution_bytes = 0;  // macroblocks are decoded where displayed
    r.fps = std::min(1.0 / m.t_mb_split,
                     1.0 / (m.t_tile_decode +
                            link.transfer_s(size_t(
                                m.mb_exchange_bytes / std::max(1, T)))));
    r.notes = "split requires full VLC parse";
    out.push_back(r);
  }

  // --- Hierarchical (paper) ------------------------------------------------------
  {
    LevelReport r;
    r.level = ParallelLevel::kHierarchical;
    r.k = core::choose_k(m.t_mb_split, m.t_tile_decode);
    r.split_s_per_picture = m.t_mb_split;  // per second-level splitter
    r.interdecoder_bytes = m.mb_exchange_bytes;
    r.redistribution_bytes = 0;
    r.fps = core::predicted_fps(r.k, m.t_mb_split, m.t_tile_decode);
    r.notes = "k chosen as ceil(t_s/t_d)";
    out.push_back(r);
  }

  return out;
}

}  // namespace pdw::baseline
