// Tile decoder (paper's "decoder D" node).
//
// Decodes the sub-pictures for one screen tile. Holds reference frames for
// its own tile region only; motion compensation that crosses the tile
// boundary reads from a *halo* of remote macroblocks delivered through the
// MEI exchanges before the picture is decoded. There is no on-demand remote
// fetch path at all — the splitter's pre-calculation must be complete.
//
// Two halo policies:
//  * kStrict  — a missing halo entry is a hard CHECK failure (the lockstep
//               decoder's tested invariant: pre-calculation is complete).
//  * kConceal — a missing halo entry (or a missing reference frame) is
//               concealed with mid-gray pixels and the reconstructed frame
//               is marked *tainted*. The fault-tolerant cluster runtime uses
//               this so a decoder can keep the wall alive through message
//               loss and node death, while taint tracking guarantees that
//               any frame NOT flagged degraded is bit-exact.
//
// Taint propagates like pixels do: a frame is tainted if reconstruction
// concealed anything, or if it actually read a tainted (or missing)
// reference frame or a tainted halo entry. I pictures read nothing, so
// taint self-clears at the next I — the paper's GOP structure is what makes
// degraded-mode recovery converge.
//
// Inside one picture the decoder is parallel. A sub-picture's runs are
// independent: each carries its entry state in its SPH and stays inside one
// macroblock row. decode() cuts the tile's rows into bands of whole rows,
// and the calling thread and the process's WorkPool (common/work_pool.h)
// decode the bands together, each with its own syntax decoder and reference
// views. Runs of one row stay in stream order inside their band, so a row
// that two slices claim still ends as the later one left it. Concealment,
// the completeness check, display emission and the reference rotation run
// on the caller after the bands.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "core/mei.h"
#include "core/subpicture.h"
#include "mpeg2/frame.h"
#include "mpeg2/motion.h"
#include "wall/geometry.h"

namespace pdw::core {

enum class HaloPolicy { kStrict, kConceal };

// Remote macroblocks for one reference direction of the picture currently
// being decoded, keyed by packed macroblock coordinates. Entries remember
// whether the sender's reference was itself degraded, so taint crosses
// decoder boundaries.
class HaloCache {
 public:
  struct Entry {
    mpeg2::MacroblockPixels px;
    bool tainted = false;
  };

  void insert(int mbx, int mby, const mpeg2::MacroblockPixels& px,
              bool tainted = false) {
    map_[key(mbx, mby)] = Entry{px, tainted};
  }
  const Entry* find(int mbx, int mby) const {
    const auto it = map_.find(key(mbx, mby));
    return it == map_.end() ? nullptr : &it->second;
  }
  void clear() { map_.clear(); }
  size_t size() const { return map_.size(); }

 private:
  static uint64_t key(int mbx, int mby) {
    return (uint64_t(mby) << 32) | uint32_t(mbx);
  }
  std::unordered_map<uint64_t, Entry> map_;
};

// RefSource over a tile-local reference frame plus its halo of remote
// macroblocks. A window inside the frame's rect is read in place; a window
// that crosses the rect's edge or lies in the halo is gathered, local and
// remote macroblocks in any mix, into the caller's scratch. Same pixel
// values as the serial decoder's full frame => identical MC arithmetic =>
// bit-exact reconstruction.
//
// Under HaloPolicy::kConceal a missing halo macroblock is filled with
// mid-gray instead of aborting, and the source records that it concealed;
// reading a tainted halo entry also marks the source. A reference frame
// that does not exist (lost to a skip or a fresh adoption; `tf` null) reads
// as all gray: any actual read taints the output, but if the syntax never
// reads it (e.g. backward-only B pictures right after a closed-GOP I), the
// output stays bit-exact — exactly the property the recovery invariant
// relies on. The flags are per instance: every band builds its own sources
// over the shared, read-only frames and halo, and the decoder folds them
// into the reconstructed frame's taint bit.
class TileRefSource final : public mpeg2::RefSource {
 public:
  TileRefSource(const mpeg2::TileFrame* tf, const HaloCache& halo,
                HaloPolicy policy, bool ref_tainted)
      : tf_(tf), halo_(&halo), policy_(policy), ref_tainted_(ref_tainted) {}

  mpeg2::RefWindow window(int c, int x, int y, int w, int h,
                          uint8_t* scratch) const override;

  // True if this source delivered any pixels that are not bit-exact: a
  // concealed/tainted halo entry, or any read of a missing or tainted
  // reference frame.
  bool tainted() const {
    return concealed_ || (read_ && (ref_tainted_ || tf_ == nullptr));
  }

 private:
  void gather(int c, int x, int y, int w, int h, uint8_t* dst) const;

  const mpeg2::TileFrame* tf_;
  const HaloCache* halo_;
  HaloPolicy policy_;
  bool ref_tainted_;
  mutable bool read_ = false;
  mutable bool concealed_ = false;
};

struct TileDisplayInfo {
  uint32_t pic_index = 0;   // decode order of the picture (or its trigger)
  int display_index = 0;    // display slot (global, not per-tile)
  mpeg2::PicType type = mpeg2::PicType::I;
  bool degraded = false;    // concealed/frozen content; bit-exact iff false
  // Partition epoch whose geometry the frame was decoded under (0 on a
  // static wall). The assembler must place the frame with that epoch's
  // tile rect — reorder delay means it can trail the decoder's current one.
  uint32_t epoch = 0;
};

class TileDecoder {
 public:
  // `node` is the trace pid of this decoder's decode_band spans.
  TileDecoder(const wall::TileGeometry& geo, int tile, const StreamInfo& info,
              HaloPolicy policy = HaloPolicy::kStrict, int node = 0);
  ~TileDecoder();

  int tile() const { return tile_; }

  // Adopt a new partition epoch's geometry: the tile keeps its index and its
  // reference frames (their own rects ride along — the pending reference
  // still displays, and closed GOPs guarantee no post-switch picture reads a
  // pre-switch reference), but all *future* reconstruction happens in the
  // new rect. Call only between pictures, at a closed-GOP boundary.
  void rebase(const wall::TileGeometry& geo);
  uint32_t epoch() const { return epoch_; }

  // SEND execution: extract the requested reference macroblock from this
  // decoder's local reference frames (instr.ref: 0 = forward reference of
  // the picture about to be decoded, 1 = backward). A missing reference
  // CHECK-fails under kStrict (the lockstep invariant) and yields mid-gray
  // pixels under kConceal. `tainted`, when given, reports whether the pixels
  // are degraded: gray, or read from a tainted reference.
  mpeg2::MacroblockPixels extract_for_send(const PicInfo& pic,
                                           const MeiInstruction& instr,
                                           bool* tainted = nullptr) const;

  // RECV delivery: store a remote macroblock into the halo for the upcoming
  // picture.
  void add_halo_mb(const MeiInstruction& instr,
                   const mpeg2::MacroblockPixels& px, bool tainted = false);

  // CONCEAL delivery: the splitter determined that no slice produced this
  // macroblock (bitstream damage). Staged like halo entries and executed
  // during the next decode(); concealed macroblocks count toward the tile's
  // completeness invariant. The identical plan runs in the serial concealing
  // decoder, so concealed frames stay bit-exact across the wall.
  void stage_conceal(const MeiInstruction& instr);

  // Decode one sub-picture. All halo entries for this picture must have been
  // added. Calls `display` zero or more times (display-order reordering, as
  // in the serial decoder), on the calling thread. Halo is cleared
  // afterwards. A CHECK failure in any band is rethrown here once every band
  // has finished.
  //
  // Display slots are *stateless*: every emission triggered by the picture
  // at decode index j lands at display slot j - 1, and flush() emits at the
  // last decoded index. This is what makes mid-stream adoption and skipped
  // pictures compose: a decoder that starts at picture c, or skips picture
  // s, still puts every frame it does produce in the right wall slot.
  //
  // `between_bands`, when set, runs on the calling thread after each band
  // that thread decoded itself: a node thread keeps its transport serviced
  // (net::ReliableEndpoint::poll) while the picture decodes.
  using DisplayFn =
      std::function<void(const mpeg2::TileFrame&, const TileDisplayInfo&)>;
  void decode(const SubPicture& sp, const DisplayFn& display,
              const std::function<void()>& between_bands = {});

  // The picture at decode index `pic_index` was lost (undeliverable after
  // retries). Emits exactly one degraded frame at slot pic_index - 1 (the
  // pending reference if one exists, else a frozen copy of the last shown
  // frame), and poisons the reference state until the next I picture —
  // the decoder cannot know whether the lost picture was a reference.
  void skip_picture(uint32_t pic_index, const DisplayFn& display);

  // Flush the pending reference tile at end of stream.
  void flush(const DisplayFn& display);

  // Statistics.
  int macroblocks_decoded_last_picture() const { return last_mb_count_; }
  size_t halo_mbs_last_picture() const { return last_halo_count_; }
  int concealed_mbs_last_picture() const { return last_conceal_count_; }

 private:
  void emit(const mpeg2::TileFrame& frame, const TileDisplayInfo& info,
            const DisplayFn& display);
  void emit_frozen(int slot, const DisplayFn& display);

  const wall::TileGeometry* geo_;
  int tile_;
  mpeg2::SequenceHeader seq_;
  wall::MbRect rect_;
  uint32_t epoch_ = 0;
  HaloPolicy policy_;
  int node_;

  // cur_ is decoded into; the spare takes its place when cur_ is the shown
  // frame, so display needs no copy.
  std::unique_ptr<mpeg2::TileFrame> cur_, ref_old_, ref_new_, spare_;
  bool taint_old_ = false, taint_new_ = false;
  HaloCache halo_[2];  // [0] forward, [1] backward for the upcoming picture
  // One byte per macroblock of rect_: reconstructed in this picture. Bands
  // write disjoint rows of it, never a shared word.
  std::vector<uint8_t> seen_;

  std::vector<MeiInstruction> staged_conceals_;
  int last_conceal_count_ = 0;

  bool pending_ref_ = false;
  TileDisplayInfo pending_info_;
  bool pending_hole_ = false;  // a skip consumed the pending reference; the
                               // next reference trigger must emit a frozen
                               // frame to keep one-emission-per-slot
  int64_t last_pic_index_ = -1;
  const mpeg2::TileFrame* last_shown_ = nullptr;  // one of the four frames
  uint32_t last_shown_epoch_ = 0;
  int last_mb_count_ = 0;
  size_t last_halo_count_ = 0;
};

}  // namespace pdw::core
