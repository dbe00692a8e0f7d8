// Tiled display wall geometry.
//
// An m x n projector wall shows a W x H video; adjacent projectors overlap by
// `overlap` pixels for edge blending (the Princeton wall used ~40 px), so a
// macroblock near a tile boundary may belong to several tiles and is sent to
// each of their decoders (the duplication overhead the paper notes for
// low-resolution streams).
//
// Tile boundaries come in two flavours: the classic uniform grid (epoch 0 of
// every wall), and an arbitrary non-uniform partition with cut lines on the
// macroblock grid (wall/partition.h), produced by the load-balancing planner.
// Both share all the derived machinery — overlap widening, macroblock rects,
// the home-cell owner map — so splitters and decoders answer owner_of_mb
// identically regardless of which epoch a geometry describes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace pdw::wall {

struct Partition;

struct PixelRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;  // half-open
  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool contains(int x, int y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
};

struct MbRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;  // half-open, macroblock units
  bool contains(int mbx, int mby) const {
    return mbx >= x0 && mbx < x1 && mby >= y0 && mby < y1;
  }
  int count() const { return (x1 - x0) * (y1 - y0); }

  friend bool operator==(const MbRect&, const MbRect&) = default;
};

// The tiles that decode one macroblock (TileGeometry::tiles_of_mb), held
// in place: the splitter asks once per macroblock.
struct MbTiles {
  static constexpr int kMax = 16;
  int n = 0;
  int t[kMax] = {};
  size_t size() const { return size_t(n); }
  const int* begin() const { return t; }
  const int* end() const { return t + n; }
};

class TileGeometry {
 public:
  // Partition a width x height picture across an m x n wall with `overlap`
  // blending pixels between adjacent tiles. Tile boundaries land on the
  // uniform grid; each tile's pixel rect is then widened by overlap/2 on
  // interior edges. This is epoch 0 of every wall.
  TileGeometry(int width, int height, int m, int n, int overlap = 0);

  // Non-uniform wall: tile boundaries at the partition's macroblock cut
  // lines (pixel edge = cut * 16), same overlap widening. Carries the
  // partition's epoch stamp.
  TileGeometry(int width, int height, const Partition& p, int overlap = 0);

  int m() const { return m_; }
  int n() const { return n_; }
  int tiles() const { return m_ * n_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int mb_width() const { return mb_width_; }
  int mb_height() const { return mb_height_; }
  int overlap() const { return overlap_; }

  // Which partition epoch this geometry realizes (0 for the uniform ctor).
  uint32_t epoch() const { return epoch_; }

  int tile_index(int tx, int ty) const { return ty * m_ + tx; }

  // Pixel region tile t displays (includes overlap bands).
  const PixelRect& tile_pixels(int t) const { return pixels_[size_t(t)]; }

  // Macroblock-aligned region tile t decodes (covers tile_pixels).
  const MbRect& tile_mbs(int t) const { return mbs_[size_t(t)]; }

  // All tiles that decode macroblock (mbx, mby), in row-major tile order:
  // 1..4 of them on a uniform grid.
  MbTiles tiles_of_mb(int mbx, int mby) const {
    MbTiles out;
    for (int t = 0; t < tiles(); ++t) {
      if (!mbs_[size_t(t)].contains(mbx, mby)) continue;
      PDW_CHECK_LT(out.n, MbTiles::kMax);
      out.t[out.n++] = t;
    }
    return out;
  }

  // Canonical owner of a macroblock: the unique tile responsible for
  // *serving* this macroblock's pixels to other decoders in MEI exchanges.
  // Uses the non-overlapped home grid, so splitter and decoders agree.
  int owner_of_mb(int mbx, int mby) const;

  bool tile_has_mb(int t, int mbx, int mby) const {
    return mbs_[size_t(t)].contains(mbx, mby);
  }

 private:
  // Shared ctor body: home pixel edges per axis (m_+1 / n_+1 entries,
  // first 0, last width/height).
  void init(const std::vector<int>& col_edges, const std::vector<int>& row_edges);

  int width_, height_, m_, n_, overlap_;
  int mb_width_, mb_height_;
  uint32_t epoch_ = 0;
  std::vector<PixelRect> pixels_;
  std::vector<MbRect> mbs_;
  std::vector<int> col_home_;  // pixel column -> home tile column
  std::vector<int> row_home_;
};

}  // namespace pdw::wall
