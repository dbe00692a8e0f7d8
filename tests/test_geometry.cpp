// Tile geometry tests: partitioning, overlap handling, macroblock ownership.
#include <gtest/gtest.h>

#include <algorithm>

#include "wall/geometry.h"
#include "wall/partition.h"

namespace pdw::wall {
namespace {

TEST(TileGeometry, SingleTileCoversEverything) {
  TileGeometry g(720, 480, 1, 1);
  EXPECT_EQ(g.tiles(), 1);
  EXPECT_EQ(g.tile_pixels(0).width(), 720);
  EXPECT_EQ(g.tile_mbs(0).count(), 45 * 30);
  EXPECT_EQ(g.owner_of_mb(0, 0), 0);
  EXPECT_EQ(g.owner_of_mb(44, 29), 0);
}

TEST(TileGeometry, UniformPartitionWithoutOverlap) {
  TileGeometry g(1280, 720, 2, 1, 0);
  EXPECT_EQ(g.tiles(), 2);
  EXPECT_EQ(g.tile_pixels(0).x1, 640);
  EXPECT_EQ(g.tile_pixels(1).x0, 640);
  // Macroblock rects are disjoint when the boundary is MB aligned.
  EXPECT_EQ(g.tile_mbs(0).x1, 40);
  EXPECT_EQ(g.tile_mbs(1).x0, 40);
}

TEST(TileGeometry, OverlapDuplicatesBoundaryMacroblocks) {
  TileGeometry g(1280, 720, 2, 1, 40);
  // Interior edges widen by overlap/2 = 20px each way.
  EXPECT_EQ(g.tile_pixels(0).x1, 660);
  EXPECT_EQ(g.tile_pixels(1).x0, 620);
  MbTiles tiles;
  tiles = g.tiles_of_mb(39, 0);  // pixel 624..639: in both tiles
  EXPECT_EQ(tiles.size(), 2u);
  tiles = g.tiles_of_mb(41, 0);  // pixel 656..671: tile 1 only... but 656<660
  // mb 41 covers 656..671, tile 0 pixels end at 660 -> still shared.
  EXPECT_EQ(tiles.size(), 2u);
  tiles = g.tiles_of_mb(0, 0);
  EXPECT_EQ(tiles.size(), 1u);
  tiles = g.tiles_of_mb(79, 0);
  EXPECT_EQ(tiles.size(), 1u);
}

TEST(TileGeometry, OwnerIsUniqueAndOwnsTheMacroblock) {
  for (int overlap : {0, 40}) {
    TileGeometry g(1920, 1088, 4, 4, overlap);
    for (int mby = 0; mby < g.mb_height(); ++mby) {
      for (int mbx = 0; mbx < g.mb_width(); ++mbx) {
        const int owner = g.owner_of_mb(mbx, mby);
        EXPECT_TRUE(g.tile_has_mb(owner, mbx, mby));
      }
    }
  }
}

TEST(TileGeometry, EveryMacroblockHasAtLeastOneTile) {
  TileGeometry g(3840, 2912, 4, 4, 40);
  MbTiles tiles;
  int max_tiles = 0;
  for (int mby = 0; mby < g.mb_height(); ++mby) {
    for (int mbx = 0; mbx < g.mb_width(); ++mbx) {
      tiles = g.tiles_of_mb(mbx, mby);
      ASSERT_GE(tiles.size(), 1u) << mbx << "," << mby;
      max_tiles = std::max(max_tiles, int(tiles.size()));
    }
  }
  // Corner overlap regions belong to up to 4 tiles.
  EXPECT_LE(max_tiles, 4);
  EXPECT_GE(max_tiles, 2);
}

TEST(TileGeometry, TilePixelsCoverTheWholePicture) {
  TileGeometry g(1000, 700, 3, 2, 24);  // non-MB-aligned sizes allowed
  std::vector<int> cover(size_t(1000) * 700, 0);
  for (int t = 0; t < g.tiles(); ++t) {
    const PixelRect& r = g.tile_pixels(t);
    for (int y = r.y0; y < r.y1; ++y)
      for (int x = r.x0; x < r.x1; ++x) ++cover[size_t(y) * 1000 + x];
  }
  for (size_t i = 0; i < cover.size(); ++i) ASSERT_GE(cover[i], 1) << i;
}

TEST(TileGeometry, MbRectCoversPixelRect) {
  TileGeometry g(1280, 720, 3, 3, 40);
  for (int t = 0; t < g.tiles(); ++t) {
    const PixelRect& p = g.tile_pixels(t);
    const MbRect& m = g.tile_mbs(t);
    EXPECT_LE(m.x0 * 16, p.x0);
    EXPECT_LE(m.y0 * 16, p.y0);
    EXPECT_GE(m.x1 * 16, std::min(p.x1, 1280));
    EXPECT_GE(m.y1 * 16, std::min(p.y1, 720));
  }
}

TEST(TileGeometry, RejectsExcessiveOverlap) {
  EXPECT_THROW(TileGeometry(320, 240, 4, 1, 100), CheckError);
}

TEST(TileGeometry, PaperConfigurations) {
  // All screen configurations used in the paper's experiments.
  const int configs[][2] = {{1, 1}, {2, 1}, {2, 2}, {3, 2},
                            {3, 3}, {4, 3}, {4, 4}};
  for (auto [m, n] : configs) {
    TileGeometry g(3840, 2912, m, n, 40);
    EXPECT_EQ(g.tiles(), m * n);
    for (int t = 0; t < g.tiles(); ++t)
      EXPECT_GT(g.tile_mbs(t).count(), 0);
  }
}

TEST(TileGeometry, SingleRowAndSingleColumnWalls) {
  // 1xN and Mx1 walls: degenerate grids every layer must survive.
  for (int overlap : {0, 16}) {
    TileGeometry row_wall(1280, 720, 4, 1, overlap);
    TileGeometry col_wall(1280, 720, 1, 4, overlap);
    EXPECT_EQ(row_wall.tiles(), 4);
    EXPECT_EQ(col_wall.tiles(), 4);
    MbTiles tiles;
    for (const TileGeometry* g : {&row_wall, &col_wall}) {
      for (int mby = 0; mby < g->mb_height(); ++mby) {
        for (int mbx = 0; mbx < g->mb_width(); ++mbx) {
          const int owner = g->owner_of_mb(mbx, mby);
          ASSERT_TRUE(g->tile_has_mb(owner, mbx, mby));
          tiles = g->tiles_of_mb(mbx, mby);
          ASSERT_TRUE(std::find(tiles.begin(), tiles.end(), owner) !=
                      tiles.end());
        }
      }
    }
    // The single cross axis spans the full picture.
    EXPECT_EQ(row_wall.tile_pixels(0).y1, 720);
    EXPECT_EQ(col_wall.tile_pixels(0).x1, 1280);
  }
}

TEST(TileGeometry, PartitionRejectsBandNarrowerThanOverlap) {
  // A 2-MB band is 32px wide; overlap 40 swallows it whole.
  Partition p;
  p.col_cuts_mb = {2};
  EXPECT_THROW(TileGeometry(640, 480, p, 40), CheckError);
  // The same cuts clear a smaller overlap.
  TileGeometry ok(640, 480, p, 24);
  EXPECT_EQ(ok.tiles(), 2);
}

TEST(TileGeometry, PartitionRejectsDegenerateCuts) {
  Partition dup;
  dup.col_cuts_mb = {5, 5};  // zero-width band (tile narrower than one MB)
  EXPECT_THROW(TileGeometry(640, 480, dup, 0), CheckError);

  Partition backwards;
  backwards.col_cuts_mb = {20, 10};
  EXPECT_THROW(TileGeometry(640, 480, backwards, 0), CheckError);

  Partition past_edge;
  past_edge.row_cuts_mb = {30};  // mb_height(480) == 30; cut must be interior
  EXPECT_THROW(TileGeometry(640, 480, past_edge, 0), CheckError);

  Partition at_zero;
  at_zero.col_cuts_mb = {0};
  EXPECT_THROW(TileGeometry(640, 480, at_zero, 0), CheckError);
}

TEST(TileGeometry, PartitionOwnerMapAgreesAcrossOverlapSettings) {
  // The splitter builds its geometry with overlap 0, the wall with the
  // projector overlap; MB ownership must agree or MEIs go to the wrong tile.
  Partition p;
  p.epoch = 3;
  p.col_cuts_mb = {11, 19, 31};
  p.row_cuts_mb = {9, 17};
  TileGeometry splitter_view(640, 480, p, 0);
  TileGeometry wall_view(640, 480, p, 32);
  EXPECT_EQ(wall_view.epoch(), 3u);
  MbTiles tiles;
  for (int mby = 0; mby < wall_view.mb_height(); ++mby) {
    for (int mbx = 0; mbx < wall_view.mb_width(); ++mbx) {
      const int owner = wall_view.owner_of_mb(mbx, mby);
      ASSERT_EQ(owner, splitter_view.owner_of_mb(mbx, mby));
      ASSERT_TRUE(wall_view.tile_has_mb(owner, mbx, mby));
      tiles = wall_view.tiles_of_mb(mbx, mby);
      ASSERT_TRUE(std::find(tiles.begin(), tiles.end(), owner) != tiles.end());
    }
  }
}

TEST(TileGeometry, UniformPartitionOwnerMapMatchesUniformGeometry) {
  // Epoch 0 of an adaptive wall is the uniform grid: a Partition built by
  // Partition::uniform must route every MB exactly like the classic ctor.
  const int w = 1000, h = 700;  // non-MB-aligned on purpose
  TileGeometry classic(w, h, 3, 2, 24);
  TileGeometry from_partition(w, h, Partition::uniform(w, h, 3, 2), 24);
  for (int mby = 0; mby < classic.mb_height(); ++mby)
    for (int mbx = 0; mbx < classic.mb_width(); ++mbx)
      ASSERT_EQ(classic.owner_of_mb(mbx, mby),
                from_partition.owner_of_mb(mbx, mby))
          << mbx << "," << mby;
}

}  // namespace
}  // namespace pdw::wall
