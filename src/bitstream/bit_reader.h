// MSB-first bit reader over a borrowed byte buffer.
//
// This is the hot inner loop of both the decoder and the macroblock-level
// splitter, so the design follows the usual codec idiom: a left-aligned
// 64-bit cache, with peek/skip split so VLC decoding can peek a fixed window
// and then consume the matched length. While 8 bytes remain the cache is
// refilled with one unaligned big-endian load; the last 7 bytes, and the
// zero-fill past the end, go byte by byte.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/check.h"

namespace pdw {

class BitReader {
 public:
  BitReader() = default;
  explicit BitReader(std::span<const uint8_t> data) : data_(data) {}

  // Construct positioned at an arbitrary bit offset (used when decoding
  // sub-picture partial slices, whose payload starts mid-byte). O(1): jumps
  // whole bytes directly.
  BitReader(std::span<const uint8_t> data, size_t bit_offset)
      : BitReader(data) {
    byte_pos_ = bit_offset / 8;
    skip(bit_offset % 8);
  }

  // Next `n` bits (n in [0,32]) left-aligned into the low bits, without
  // consuming. Bits past the end of the buffer read as zero; callers detect
  // overrun via overrun() / CHECK at a safe boundary.
  uint32_t peek(int n) {
    PDW_CHECK_LE(n, 32);
    fill(n);
    return n == 0 ? 0u : uint32_t(cache_ >> (kCacheBits - n));
  }

  void skip(size_t n) {
    while (n > 32) {
      consume(32);
      n -= 32;
    }
    consume(int(n));
  }

  // Read and consume `n` bits, n in [0,32]. Wide enough for a whole start
  // code (prefix + code byte) in one call.
  uint32_t read(int n) {
    const uint32_t v = peek(n);
    consume(n);
    return v;
  }

  // Read a value wider than 32 bits (e.g. 42-bit fields in tests).
  uint64_t read_wide(int n) {
    PDW_CHECK_LE(n, 64);
    uint64_t v = 0;
    while (n > 0) {
      const int chunk = n > 32 ? 32 : n;
      v = (v << chunk) | read(chunk);
      n -= chunk;
    }
    return v;
  }

  bool read_bit() { return read(1) != 0; }

  // Absolute position in bits from the start of the buffer.
  size_t bit_pos() const { return byte_pos_ * 8 - size_t(cache_bits_); }

  size_t size_bits() const { return data_.size() * 8; }
  size_t bits_left() const {
    const size_t pos = bit_pos();
    return pos >= size_bits() ? 0 : size_bits() - pos;
  }

  // True if any read has consumed bits beyond the end of the buffer. The
  // position never moves back, so this stays true once it turns true and
  // callers can hoist the check from per-read to per-slice. All reads past
  // the end return zero bits, so parsing on after an overrun is well-defined
  // (the result is garbage, but never UB).
  bool overrun() const { return bit_pos() > size_bits(); }

  bool byte_aligned() const { return bit_pos() % 8 == 0; }

  void align_to_byte() {
    const size_t rem = bit_pos() % 8;
    if (rem) skip(8 - rem);
  }

  // True if the aligned reader is looking at 0x000001 (a start code prefix).
  // Only meaningful when byte_aligned().
  bool at_start_code_prefix() {
    return byte_aligned() && bits_left() >= 24 && peek(24) == 0x000001;
  }

  // MPEG-2 "next_start_code()": align, then true if the next bits are a start
  // code prefix or the stream is exhausted.
  std::span<const uint8_t> data() const { return data_; }

 private:
  static constexpr int kCacheBits = 64;

  // Postcondition: cache_bits_ >= n. The bulk path tops the cache up to
  // 57..64 bits and leaves the following stream bits (not zeros) below
  // them; a later refill ORs the same bits back in, so that is harmless.
  void fill(int n) {
    if (cache_bits_ >= n) return;
    if (data_.size() >= 8 && byte_pos_ <= data_.size() - 8) {
      uint64_t v;
      std::memcpy(&v, data_.data() + byte_pos_, 8);
      if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap64(v);
      cache_ |= v >> cache_bits_;
      const int bytes = (kCacheBits - cache_bits_) >> 3;
      byte_pos_ += size_t(bytes);
      cache_bits_ += bytes * 8;
      return;
    }
    while (cache_bits_ < n) {
      const uint64_t byte =
          byte_pos_ < data_.size() ? data_[byte_pos_] : 0;  // zero-pad past end
      ++byte_pos_;
      cache_ |= byte << (kCacheBits - 8 - cache_bits_);
      cache_bits_ += 8;
    }
  }

  void consume(int n) {
    fill(n);
    cache_ <<= n;
    cache_bits_ -= n;
  }

  std::span<const uint8_t> data_;
  size_t byte_pos_ = 0;  // next byte to load into the cache
  uint64_t cache_ = 0;   // left-aligned
  int cache_bits_ = 0;
};

}  // namespace pdw
