// Second-level (macroblock) splitter (paper §4.1, Table 2/3).
//
// Parses one picture at macroblock level — the expensive splitting step the
// hierarchy exists to parallelize — and produces, for each tile decoder:
//   * a SubPicture: SPH-framed verbatim byte runs of the macroblocks that
//     fall in the tile's screen rectangle (including projector overlap);
//   * a MEI list: the remote-reference SEND/RECV pre-calculation.
//
// The parse uses ParseMode::kScan: all VLCs are consumed and predictor state
// is tracked (the SPH needs it), but no dequantisation/IDCT/MC is done.
// This is what makes t_s < t_d and the one-level splitter eventually the
// bottleneck as decoders multiply (paper §5.3).
//
// Inside one picture the split is parallel. Every slice starts at a
// byte-aligned start code and resets its predictors, so split() lists the
// picture's slices, cuts them into contiguous parts, and the calling thread
// and the process's WorkPool (common/work_pool.h) scan the parts at once,
// each into its own runs, exchange candidates, delivered addresses and
// partial statistics. The caller then merges the parts in stream order, so
// the result is exactly what one serial scan of the picture produces. The
// part layout depends only on the stream, never on the pool size.
#pragma once

#include <vector>

#include "common/decode_status.h"
#include "core/mei.h"
#include "core/subpicture.h"
#include "mpeg2/types.h"
#include "wall/geometry.h"

namespace pdw::core {

struct SplitStats {
  int macroblocks = 0;          // total in the picture (coded + skipped)
  int coded_macroblocks = 0;
  int exchange_pairs = 0;       // deduplicated (tile, ref, mb) exchanges
  int dropped_slices = 0;       // slices abandoned due to bitstream damage
  int concealed_macroblocks = 0;  // CONCEAL instructions emitted (pre-overlap)
  size_t input_bytes = 0;       // coded picture size
  size_t output_bytes = 0;      // sum of sub-picture + MEI wire bytes
  std::vector<int> mbs_per_tile;
  // Per-MB-column / per-MB-row decode-cost model for the partition planner:
  // coded bits plus fixed recon/MC weights, deterministic per bitstream.
  std::vector<uint32_t> cost_col;
  std::vector<uint32_t> cost_row;
};

struct SplitResult {
  // !ok() => the picture is undecodable (damaged headers); subpictures/mei
  // are empty and the caller drops the picture (skip-broadcast to tiles).
  // Slice-level damage does NOT fail the split: the affected macroblocks
  // arrive as CONCEAL instructions in `mei` instead.
  DecodeStatus status;
  PicInfo info;
  std::vector<SubPicture> subpictures;            // one per tile
  std::vector<std::vector<MeiInstruction>> mei;   // one per tile
  SplitStats stats;
};

class MacroblockSplitter {
 public:
  // `geo` describes the wall; the splitter keeps its own sequence-header
  // state, updated from headers embedded in picture spans.
  // `node` is the trace pid of this splitter's split_part spans.
  explicit MacroblockSplitter(const wall::TileGeometry& geo, int node = 0);
  ~MacroblockSplitter();

  // Prime the sequence state (the root splitter distributes StreamInfo
  // before the first picture; pictures whose span carries a sequence header
  // update it again). CHECKs that the stream geometry matches the wall —
  // mismatched configuration is a deployment bug, not stream damage.
  void set_stream_info(const StreamInfo& info);

  // Split one coded picture (picture headers + slices). Run payloads in the
  // result are zero-copy *views* into `picture`'s block — the sub-pictures
  // stay valid as long as they live, pinning the picture buffer.
  SplitResult split(const mem::Bytes& picture, uint32_t pic_index);
  // Span flavour: copies the span into a pooled buffer first (callers that
  // do not already hold the picture as Bytes).
  SplitResult split(std::span<const uint8_t> picture_span, uint32_t pic_index);

  // Per-call geometry flavour: split against an explicit (epoch) geometry
  // instead of the wall's base grid. Adaptive engines pass the geometry of
  // the picture's partition epoch; tile rects, MEI owner maps and the
  // sub-picture fan-out all follow the given cuts.
  SplitResult split(const mem::Bytes& picture, uint32_t pic_index,
                    const wall::TileGeometry& geo);

  const mpeg2::SequenceHeader& sequence() const { return seq_; }

 private:
  struct Part;
  // One exchange (tile, reference direction, macroblock), packed so equal
  // exchanges compare equal, and the position it was sighted at.
  struct Sighting {
    uint64_t key;
    uint32_t order;
  };
  // Keeps only the first sighting of each exchange, in sighting order.
  static void keep_first_sightings(std::vector<Sighting>* v);

  const wall::TileGeometry& geo_;
  int node_;
  mpeg2::SequenceHeader seq_;
  bool have_seq_ = false;
  // Scratch reused across pictures: the picture's slice start codes, the
  // parts that scan them, and the merge's exchange sightings.
  std::vector<size_t> slices_;
  std::vector<Part> parts_;
  std::vector<Sighting> exchanges_;
};

}  // namespace pdw::core
