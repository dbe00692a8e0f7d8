#include "wall/geometry.h"

#include <algorithm>

#include "wall/partition.h"

namespace pdw::wall {

TileGeometry::TileGeometry(int width, int height, int m, int n, int overlap)
    : width_(width),
      height_(height),
      m_(m),
      n_(n),
      overlap_(overlap),
      mb_width_((width + 15) / 16),
      mb_height_((height + 15) / 16) {
  PDW_CHECK_GT(m, 0);
  PDW_CHECK_GT(n, 0);
  PDW_CHECK_GE(overlap, 0);
  PDW_CHECK_GT(width, 0);
  PDW_CHECK_GT(height, 0);
  // Each tile must still be wider than the overlap bands it absorbs.
  PDW_CHECK_GT(width / m, overlap) << "overlap too large for tile width";
  PDW_CHECK_GT(height / n, overlap) << "overlap too large for tile height";

  // Home grid: uniform partition (last tile absorbs the remainder).
  std::vector<int> col_edges(size_t(m) + 1), row_edges(size_t(n) + 1);
  for (int i = 0; i <= m; ++i) col_edges[size_t(i)] = (width * i) / m;
  for (int i = 0; i <= n; ++i) row_edges[size_t(i)] = (height * i) / n;
  init(col_edges, row_edges);
}

TileGeometry::TileGeometry(int width, int height, const Partition& p,
                           int overlap)
    : width_(width),
      height_(height),
      m_(p.m()),
      n_(p.n()),
      overlap_(overlap),
      mb_width_((width + 15) / 16),
      mb_height_((height + 15) / 16),
      epoch_(p.epoch) {
  PDW_CHECK_GE(overlap, 0);
  PDW_CHECK_GT(width, 0);
  PDW_CHECK_GT(height, 0);

  // Cut lines live strictly inside the macroblock grid and each band must
  // stay wider than the overlap it absorbs (and at least one macroblock).
  auto edges_from_cuts = [&](const std::vector<int>& cuts_mb, int size,
                             int mb_size) {
    std::vector<int> edges;
    edges.reserve(cuts_mb.size() + 2);
    edges.push_back(0);
    int prev_mb = 0;
    for (int cut : cuts_mb) {
      PDW_CHECK_GT(cut, prev_mb) << "partition cuts must strictly increase";
      PDW_CHECK_LT(cut, mb_size) << "partition cut past the picture edge";
      edges.push_back(cut * 16);
      prev_mb = cut;
    }
    edges.push_back(size);
    for (size_t i = 0; i + 1 < edges.size(); ++i)
      PDW_CHECK_GT(edges[i + 1] - edges[i], overlap)
          << "overlap too large for partition band";
    return edges;
  };
  init(edges_from_cuts(p.col_cuts_mb, width, mb_width_),
       edges_from_cuts(p.row_cuts_mb, height, mb_height_));
}

void TileGeometry::init(const std::vector<int>& col_edges,
                        const std::vector<int>& row_edges) {
  const int m = m_, n = n_, overlap = overlap_;
  pixels_.resize(size_t(m) * n);
  mbs_.resize(size_t(m) * n);
  for (int ty = 0; ty < n; ++ty) {
    for (int tx = 0; tx < m; ++tx) {
      PixelRect r;
      r.x0 = col_edges[size_t(tx)];
      r.x1 = col_edges[size_t(tx) + 1];
      r.y0 = row_edges[size_t(ty)];
      r.y1 = row_edges[size_t(ty) + 1];
      // Widen interior edges by half the projector overlap each way.
      if (tx > 0) r.x0 -= overlap / 2;
      if (tx < m - 1) r.x1 += overlap - overlap / 2;
      if (ty > 0) r.y0 -= overlap / 2;
      if (ty < n - 1) r.y1 += overlap - overlap / 2;

      const int t = tile_index(tx, ty);
      pixels_[size_t(t)] = r;
      MbRect mr;
      mr.x0 = r.x0 / 16;
      mr.y0 = r.y0 / 16;
      mr.x1 = std::min(mb_width_, (r.x1 + 15) / 16);
      mr.y1 = std::min(mb_height_, (r.y1 + 15) / 16);
      mbs_[size_t(t)] = mr;
    }
  }

  // Home lookup tables for owner_of_mb: a macroblock's owner is the tile of
  // the home cell containing its top-left pixel.
  col_home_.resize(size_t(width_));
  row_home_.resize(size_t(height_));
  for (int tx = 0; tx < m; ++tx)
    for (int x = col_edges[size_t(tx)]; x < col_edges[size_t(tx) + 1]; ++x)
      col_home_[size_t(x)] = tx;
  for (int ty = 0; ty < n; ++ty)
    for (int y = row_edges[size_t(ty)]; y < row_edges[size_t(ty) + 1]; ++y)
      row_home_[size_t(y)] = ty;
}

int TileGeometry::owner_of_mb(int mbx, int mby) const {
  const int px = std::min(mbx * 16, width_ - 1);
  const int py = std::min(mby * 16, height_ - 1);
  const int t = tile_index(col_home_[size_t(px)], row_home_[size_t(py)]);
  // The owner must itself decode the macroblock, or it could not serve it.
  PDW_CHECK(mbs_[size_t(t)].contains(mbx, mby));
  return t;
}

}  // namespace pdw::wall
