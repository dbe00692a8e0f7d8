// MPEG-2 VLC tables (ISO/IEC 13818-2 Annex B), scan patterns and default
// quantiser matrices, with both decode (BitReader) and encode (BitWriter)
// entry points so the codec substrate is self-consistent end to end.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// Scan patterns (§7.3): scan index -> raster position.
extern const std::array<uint8_t, 64> kZigzagScan;     // alternate_scan = 0
extern const std::array<uint8_t, 64> kAlternateScan;  // alternate_scan = 1

inline const std::array<uint8_t, 64>& scan_table(bool alternate) {
  return alternate ? kAlternateScan : kZigzagScan;
}

// Default quantiser matrices (§6.3.11), raster order.
extern const std::array<uint8_t, 64> kDefaultIntraQuant;
extern const std::array<uint8_t, 64> kDefaultNonIntraQuant;

// ---------------------------------------------------------------------------
// Generic canonical VLC with LUT decode.
// ---------------------------------------------------------------------------

struct VlcEntry {
  uint32_t code;  // left-justified in `len` bits
  uint8_t len;
  int16_t value;
};

// Prefix-free code table with O(1) decode via a (1 << max_len) lookup table.
// Tables here are tiny (max_len <= 11), so flat LUTs are the simple choice.
class Vlc {
 public:
  Vlc(const VlcEntry* entries, size_t count);

  // Decode the next symbol; CHECKs on an invalid code (stream error).
  int decode(BitReader& r) const;

  // Decode returning false on invalid code instead of throwing. Inline: the
  // macroblock parser calls it several times per macroblock.
  bool try_decode(BitReader& r, int* value) const {
    const LutEntry e = lut_[r.peek(max_len_)];
    if (e.len == 0) return false;
    r.skip(e.len);
    *value = e.value;
    return true;
  }

  // Encode `value`; CHECKs if the value has no code.
  void encode(BitWriter& w, int value) const;

  int max_len() const { return max_len_; }
  const VlcEntry* find(int value) const;

 private:
  struct LutEntry {
    int16_t value;
    uint8_t len;  // 0 = invalid code
  };
  const VlcEntry* entries_;
  size_t count_;
  int max_len_ = 0;
  std::vector<LutEntry> lut_;
};

// Annex B tables. Values:
//   address increment: 1..33 (escape handled by callers via decode helpers)
//   macroblock type:   mb_flags bitmask
//   coded block pattern: 0..63
//   motion code:       -16..16
//   dct dc size:       0..11
const Vlc& vlc_mb_address_increment();  // B.1 (without the escape code)
const Vlc& vlc_mb_type(PicType type);   // B.2 / B.3 / B.4
const Vlc& vlc_coded_block_pattern();   // B.9
const Vlc& vlc_motion_code();           // B.10
const Vlc& vlc_dct_dc_size_luma();      // B.12
const Vlc& vlc_dct_dc_size_chroma();    // B.13

// --- macroblock_address_increment with escapes --------------------------

// Decode a full address increment (>= 1), consuming any number of
// macroblock_escape codes (each adds 33).
int decode_address_increment(BitReader& r);
// Non-throwing variant for the error-resilient parse path: returns false on
// an invalid code or a runaway escape sequence.
bool try_decode_address_increment(BitReader& r, int* increment);
void encode_address_increment(BitWriter& w, int increment);

// --- DCT coefficients, Table B.14 ----------------------------------------

struct DctCoeff {
  bool eob = false;
  int run = 0;
  int level = 0;  // signed
};

namespace b14 {

// One run/level code (the '11' form of run 0 / level 1; the '1'
// first-coefficient form is special-cased in decode/encode). `code` and
// `len` exclude the sign bit that follows it in the stream.
struct Code {
  uint8_t run;
  uint8_t level;  // magnitude
  uint16_t code;
  uint8_t len;
};
extern const std::array<Code, 111> kCodes;  // all of Table B.14's
inline constexpr uint16_t kEobCode = 0b10;
inline constexpr int kEobLen = 2;
inline constexpr uint16_t kEscapeCode = 0b000001;
inline constexpr int kEscapeLen = 6;

// Decode table over the next 16 bits of the stream (the longest B.14 code is
// 16 bits), in two levels so that the codes a block mostly holds stay in L1.
// Every code of up to 10 bits resolves from the window's top 10 bits
// (entries [0, 1024)). A window below 512 starts with seven zeros: it holds
// a 12- to 16-bit code (or an invalid one) and resolves from its low 9 bits
// (entries [1024, 1536)).
inline constexpr int8_t kEob = -1, kEscape = -2, kInvalid = -3;
struct Lut {
  int8_t run;     // >= 0 for a run/level code, else kEob/kEscape/kInvalid
  uint8_t level;  // magnitude
  uint8_t len;    // code length without the sign bit
};
inline constexpr int kFirstBits = 10;
inline constexpr uint32_t kSecondLevelBelow = 512;
inline constexpr size_t kLutSize = (1u << kFirstBits) + kSecondLevelBelow;
extern const std::array<Lut, kLutSize> kLut;

// Slot of the 16-bit window `w16` in kLut.
constexpr size_t index(uint32_t w16) {
  return w16 >= kSecondLevelBelow ? w16 >> (16 - kFirstBits)
                                  : (1u << kFirstBits) + w16;
}

}  // namespace b14

// Decode one run/level pair (or EOB), returning false on an invalid code or a
// forbidden escape level (0 or -2048). `first` selects the first-coefficient
// convention for non-intra blocks (code '1s' instead of '11s'). On failure
// an invalid code consumes nothing and an escape consumes its 24 bits.
//
// One 24-bit peek covers every case: the '1s' code, a table code of up to
// 16 bits plus its sign, EOB, and the escape ('000001', 6-bit run, 12-bit
// level). This is the macroblock parser's inner loop.
inline bool try_decode_dct_coeff_b14(BitReader& r, bool first, DctCoeff* out) {
  const uint32_t w = r.peek(24);
  if (first && (w >> 23)) {
    r.skip(2);
    *out = {false, 0, (w >> 22) & 1 ? -1 : 1};
    return true;
  }
  const b14::Lut e = b14::kLut[b14::index(w >> 8)];
  if (e.run >= 0) {
    r.skip(e.len + 1);
    const int level = e.level;
    *out = {false, e.run, (w >> (23 - e.len)) & 1 ? -level : level};
    return true;
  }
  if (e.run == b14::kEob) {
    r.skip(e.len);
    *out = {true, 0, 0};
    return true;
  }
  if (e.run == b14::kInvalid) return false;
  r.skip(24);
  const int level = int32_t(w << 20) >> 20;  // 12-bit two's complement
  if (level == 0 || level == -2048) return false;
  *out = {false, int(w >> 12) & 63, level};
  return true;
}

// CHECKing wrapper: an invalid code is a stream error.
DctCoeff decode_dct_coeff_b14(BitReader& r, bool first);

// Encode one run/level pair, using the table code when one exists and the
// MPEG-2 escape (6-bit run + 12-bit signed level) otherwise.
void encode_dct_coeff_b14(BitWriter& w, int run, int level, bool first);
void encode_eob_b14(BitWriter& w);

// True if (run, |level|) has a dedicated (non-escape) code in B.14.
bool b14_has_code(int run, int level);

}  // namespace pdw::mpeg2
