// YUV 4:2:0 frame buffers.
//
// Two flavours:
//  * Frame      — a full picture, used by the serial decoder, the encoder and
//                 the wall assembler.
//  * TileFrame  — a rectangular sub-region of a picture with global-coordinate
//                 accessors, used by tile decoders so that a node only holds
//                 its own screen region of each reference frame (this memory
//                 distribution is the reason the paper targets a cluster
//                 rather than an SMP).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "common/check.h"
#include "mem/bytes.h"

namespace pdw::mpeg2 {

// A single 8-bit plane with row-major storage (stride == width).
//
// Storage comes from the geometry-keyed surface pool (mem/pool.h): a wall
// run allocates the same plane sizes every picture, so after warm-up a
// fresh Plane is a freelist pop, not a malloc. Value semantics are
// preserved — copies are deep — and copy-assignment reuses the existing
// block when the geometry matches (the per-emission `last_shown_` refresh
// in the tile decoder becomes a memcpy into recycled storage).
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, uint8_t fill = 0)
      : width_(width),
        height_(height),
        data_(mem::Bytes::surface(size_t(width) * height, fill)) {}

  Plane(const Plane& o)
      : width_(o.width_),
        height_(o.height_),
        data_(mem::Bytes::surface_copy(o.data_.span())) {}
  Plane& operator=(const Plane& o) {
    if (this == &o) return *this;
    width_ = o.width_;
    height_ = o.height_;
    if (data_.size() == o.data_.size() && data_.unique() && !data_.empty()) {
      std::memcpy(data_.mutable_data(), o.data_.data(), o.data_.size());
    } else {
      data_ = mem::Bytes::surface_copy(o.data_.span());
    }
    return *this;
  }
  Plane(Plane&& o) noexcept
      : width_(std::exchange(o.width_, 0)),
        height_(std::exchange(o.height_, 0)),
        data_(std::move(o.data_)) {}
  Plane& operator=(Plane&& o) noexcept {
    width_ = std::exchange(o.width_, 0);
    height_ = std::exchange(o.height_, 0);
    data_ = std::move(o.data_);
    return *this;
  }

  int width() const { return width_; }
  int height() const { return height_; }

  uint8_t* row(int y) {
    PDW_CHECK_GE(y, 0);
    PDW_CHECK_LT(y, height_);
    return data_.mutable_data() + size_t(y) * width_;
  }
  const uint8_t* row(int y) const {
    PDW_CHECK_GE(y, 0);
    PDW_CHECK_LT(y, height_);
    return data_.data() + size_t(y) * width_;
  }

  uint8_t at(int x, int y) const { return row(y)[x]; }
  void set(int x, int y, uint8_t v) { row(y)[x] = v; }

  void fill(uint8_t v) {
    if (!data_.empty()) std::memset(data_.mutable_data(), v, data_.size());
  }

  std::span<const uint8_t> data() const { return data_.span(); }
  std::span<uint8_t> data() { return data_.mutable_span(); }

  friend bool operator==(const Plane& a, const Plane& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.data_ == b.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  mem::Bytes data_;  // owning, size == width * height
};

// Full-picture YUV 4:2:0 frame. Luma is width x height; chroma planes are
// half resolution in both dimensions. Dimensions are macroblock-aligned by
// the codec (the true display size may be smaller).
struct Frame {
  Frame() = default;
  Frame(int width, int height)
      : y(width, height), cb(width / 2, height / 2), cr(width / 2, height / 2) {
    PDW_CHECK_EQ(width % 2, 0);
    PDW_CHECK_EQ(height % 2, 0);
  }

  int width() const { return y.width(); }
  int height() const { return y.height(); }

  Plane& plane(int c) { return c == 0 ? y : (c == 1 ? cb : cr); }
  const Plane& plane(int c) const { return c == 0 ? y : (c == 1 ? cb : cr); }

  Plane y, cb, cr;

  friend bool operator==(const Frame&, const Frame&) = default;
};

// PSNR of the luma plane (infinity-free: returns 99.0 for identical planes).
double psnr(const Plane& a, const Plane& b);

// The pixel payload of one macroblock: 16x16 luma + two 8x8 chroma blocks.
// This is the unit of the paper's macroblock exchange (MEI) messages.
struct MacroblockPixels {
  uint8_t y[16 * 16];
  uint8_t cb[8 * 8];
  uint8_t cr[8 * 8];
};
static_assert(sizeof(MacroblockPixels) == 384);

// A tile decoder's view of one picture: the macroblock-aligned sub-rectangle
// [mb_x0, mb_x1) x [mb_y0, mb_y1) of the full picture, addressed in *global*
// picture coordinates.
class TileFrame {
 public:
  TileFrame() = default;
  TileFrame(int mb_x0, int mb_y0, int mb_x1, int mb_y1)
      : mb_x0_(mb_x0),
        mb_y0_(mb_y0),
        mb_x1_(mb_x1),
        mb_y1_(mb_y1),
        y_((mb_x1 - mb_x0) * 16, (mb_y1 - mb_y0) * 16),
        cb_((mb_x1 - mb_x0) * 8, (mb_y1 - mb_y0) * 8),
        cr_((mb_x1 - mb_x0) * 8, (mb_y1 - mb_y0) * 8) {}

  int mb_x0() const { return mb_x0_; }
  int mb_y0() const { return mb_y0_; }
  int mb_x1() const { return mb_x1_; }
  int mb_y1() const { return mb_y1_; }

  // Global luma pixel rect covered by this tile frame.
  int px0() const { return mb_x0_ * 16; }
  int py0() const { return mb_y0_ * 16; }
  int px1() const { return mb_x1_ * 16; }
  int py1() const { return mb_y1_ * 16; }

  bool contains_mb(int mbx, int mby) const {
    return mbx >= mb_x0_ && mbx < mb_x1_ && mby >= mb_y0_ && mby < mb_y1_;
  }

  // Plane accessors in global picture coordinates (luma coords for plane 0,
  // chroma coords for planes 1/2).
  uint8_t* pixel(int c, int gx, int gy) {
    const int shift = c == 0 ? 0 : 1;
    return plane(c).row(gy - (py0() >> shift)) + (gx - (px0() >> shift));
  }
  const uint8_t* pixel(int c, int gx, int gy) const {
    return const_cast<TileFrame*>(this)->pixel(c, gx, gy);
  }

  // True if global luma-plane pixel rect [gx, gx+w) x [gy, gy+h) (scaled for
  // chroma by the caller) lies inside this tile frame for plane c.
  bool contains_rect(int c, int gx, int gy, int w, int h) const {
    const int shift = c == 0 ? 0 : 1;
    return gx >= (px0() >> shift) && gy >= (py0() >> shift) &&
           gx + w <= (px1() >> shift) && gy + h <= (py1() >> shift);
  }

  // Extract / insert a whole macroblock (global macroblock coordinates).
  MacroblockPixels extract_mb(int mbx, int mby) const;
  void insert_mb(int mbx, int mby, const MacroblockPixels& px);

  Plane& plane(int c) { return c == 0 ? y_ : (c == 1 ? cb_ : cr_); }
  const Plane& plane(int c) const {
    return c == 0 ? y_ : (c == 1 ? cb_ : cr_);
  }
  Plane& y() { return y_; }
  Plane& cb() { return cb_; }
  Plane& cr() { return cr_; }
  const Plane& y() const { return y_; }
  const Plane& cb() const { return cb_; }
  const Plane& cr() const { return cr_; }

 private:
  int mb_x0_ = 0, mb_y0_ = 0, mb_x1_ = 0, mb_y1_ = 0;
  Plane y_, cb_, cr_;
};

}  // namespace pdw::mpeg2
