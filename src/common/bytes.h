// Little-endian wire layouts, each stated once.
//
// A layout is a function template that names every field in wire order:
//
//   template <class IO, Layout<SpMsg> M>  // SpMsg to decode, const to encode
//   void fields(IO& io, M& m) {
//     io.u32(m.pic_index);
//     io.u16(m.tile);
//     io.count32(m.runs, kMinRunBytes);
//     for (auto& run : m.runs) fields(io, run);
//   }
//
// Three visitors walk such a list: ByteWriter encodes it, ByteReader decodes
// it and ByteSizer counts its bytes, so encode, decode and size cannot
// disagree. Every visitor has the same field vocabulary:
//
//   u8/u16/u32/u64(v)  unsigned integer of that width; `v` may be any
//                      integer, enum or bool member (bool: 0/1 out, nonzero
//                      in), converted to and from the wire width
//   i16/i32(v)         signed integer of that width (sign-extended on read)
//   u32(v, max)        as u32, but the reader rejects a wire value above
//                      `max` before it is narrowed into `v`
//   check(ok)          the reader fails when `ok` is false (range checks);
//                      the writer and sizer ignore it
//   count8/16/32(v, n) an 8/16/32-bit element count of vector `v`; the reader
//                      rejects a count whose elements (at least `n` bytes
//                      each) cannot fit in the bytes remaining, then
//                      resizes `v`
//   bytes32(b)         a u32 length, then that many bytes of the block `b`
//                      (mem::Bytes; decoded as a view of the reader's
//                      parent block when it has one, else a pooled copy)
//   raw(v)             the object representation of a trivially copyable
//                      `v`, sizeof(v) bytes
//
// The reader never reads out of bounds: a failed field latches ok() false
// and every later field reads as zero. Untrusted input (protocol messages,
// datagrams, sideband frames) returns failure on !ok(); input a node made
// itself is checked with PDW_CHECK(r.ok()).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace pdw {

namespace mem {
class Bytes;
}

// `M` is T or const T: ties a field-list overload to the type it lays out.
template <class M, class T>
concept Layout = std::same_as<std::remove_const_t<M>, T>;

// Two modes: append to a growable vector, or write into a fixed-capacity
// raw buffer (the pooled-serialization path, where the caller sized the
// buffer exactly with ByteSizer and overflow is a bug).
class ByteWriter {
 public:
  static constexpr bool kDecoding = false;

  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}
  ByteWriter(uint8_t* buf, size_t capacity) : buf_(buf), cap_(capacity) {}

  template <class T> void u8(const T& v) { put<uint8_t>(v); }
  template <class T> void u16(const T& v) { put<uint16_t>(v); }
  template <class T> void u32(const T& v) { put<uint32_t>(v); }
  template <class T> void u64(const T& v) { put<uint64_t>(v); }
  template <class T> void i16(const T& v) { put<int16_t>(v); }
  template <class T> void i32(const T& v) { put<int32_t>(v); }
  template <class T> void u32(const T& v, uint32_t) { put<uint32_t>(v); }
  void check(bool) {}
  template <class V> void count8(const V& v, size_t) { put<uint8_t>(v.size()); }
  template <class V> void count16(const V& v, size_t) {
    put<uint16_t>(v.size());
  }
  template <class V> void count32(const V& v, size_t) {
    put<uint32_t>(v.size());
  }
  template <class B> void bytes32(const B& b) {
    put<uint32_t>(b.size());
    bytes(b);
  }
  template <class T> void raw(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(v));
  }

  void bytes(std::span<const uint8_t> data) {
    append(data.data(), data.size());
  }

  size_t size() const { return out_ ? out_->size() : pos_; }

 private:
  template <class W, class T> void put(const T& v) {
    const W w = W(v);  // host is little-endian (x86/ARM LE)
    append(&w, sizeof(w));
  }

  void append(const void* p, size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const uint8_t*>(p);
    if (out_) {
      out_->insert(out_->end(), b, b + n);
    } else {
      PDW_CHECK_LE(pos_ + n, cap_);
      std::memcpy(buf_ + pos_, b, n);
      pos_ += n;
    }
  }

  std::vector<uint8_t>* out_ = nullptr;
  uint8_t* buf_ = nullptr;
  size_t cap_ = 0;
  size_t pos_ = 0;
};

// Bounds-checked reader. `parent`, when given, is the block `data` spans:
// bytes32 fields then decode as views sharing it instead of copies.
class ByteReader {
 public:
  static constexpr bool kDecoding = true;

  explicit ByteReader(std::span<const uint8_t> data,
                      const mem::Bytes* parent = nullptr)
      : data_(data), parent_(parent) {}

  template <class T> void u8(T& v) { v = T(take<uint8_t>()); }
  template <class T> void u16(T& v) { v = T(take<uint16_t>()); }
  template <class T> void u32(T& v) { v = T(take<uint32_t>()); }
  template <class T> void u64(T& v) { v = T(take<uint64_t>()); }
  template <class T> void i16(T& v) { v = T(take<int16_t>()); }
  template <class T> void i32(T& v) { v = T(take<int32_t>()); }
  template <class T> void u32(T& v, uint32_t max) {
    const uint32_t w = take<uint32_t>();
    check(w <= max);
    v = T(ok_ ? w : 0);
  }
  void check(bool ok) { ok_ = ok_ && ok; }
  template <class V> void count8(V& v, size_t elem_bytes) {
    count(v, take<uint8_t>(), elem_bytes);
  }
  template <class V> void count16(V& v, size_t elem_bytes) {
    count(v, take<uint16_t>(), elem_bytes);
  }
  template <class V> void count32(V& v, size_t elem_bytes) {
    count(v, take<uint32_t>(), elem_bytes);
  }
  template <class B> void bytes32(B& b) {
    const uint32_t len = take<uint32_t>();
    const size_t off = pos_;
    const std::span<const uint8_t> s = bytes(len);
    if (!ok_) return;
    const B* parent = parent_;  // mem::Bytes, complete where this is used
    b = parent ? parent->view(off, len) : B::copy_of(s);
  }
  template <class T> void raw(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const uint8_t> s = bytes(sizeof(v));
    if (ok_) std::memcpy(&v, s.data(), sizeof(v));
  }

  // The next `n` bytes (empty, and failed, when fewer remain).
  std::span<const uint8_t> bytes(size_t n) {
    check(n <= remaining());
    if (!ok_) return {};
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  // Every byte consumed and nothing failed: an exact parse.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  template <class W> W take() {
    check(sizeof(W) <= remaining());
    if (!ok_) return W(0);
    W v;
    std::memcpy(&v, data_.data() + pos_, sizeof(W));
    pos_ += sizeof(W);
    return v;
  }

  template <class V> void count(V& v, size_t n, size_t elem_bytes) {
    check(n <= remaining() / elem_bytes);
    if (ok_) v.resize(n);
  }

  std::span<const uint8_t> data_;
  const mem::Bytes* parent_ = nullptr;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Counts the bytes a layout encodes to, without writing them.
class ByteSizer {
 public:
  static constexpr bool kDecoding = false;

  template <class T> void u8(const T&) { n_ += 1; }
  template <class T> void u16(const T&) { n_ += 2; }
  template <class T> void u32(const T&) { n_ += 4; }
  template <class T> void u64(const T&) { n_ += 8; }
  template <class T> void i16(const T&) { n_ += 2; }
  template <class T> void i32(const T&) { n_ += 4; }
  template <class T> void u32(const T&, uint32_t) { n_ += 4; }
  void check(bool) {}
  template <class V> void count8(const V&, size_t) { n_ += 1; }
  template <class V> void count16(const V&, size_t) { n_ += 2; }
  template <class V> void count32(const V&, size_t) { n_ += 4; }
  template <class B> void bytes32(const B& b) { n_ += 4 + b.size(); }
  template <class T> void raw(const T& v) { n_ += sizeof(v); }
  void bytes(std::span<const uint8_t> data) { n_ += data.size(); }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

}  // namespace pdw
