// Annex B VLC table tests: literal codes from the standard, encode/decode
// roundtrips over every table entry, and structural cross-checks.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "mpeg2/tables.h"

namespace pdw::mpeg2 {
namespace {

// Helper: decode `table` from a literal bit string.
int decode_bits(const Vlc& table, const std::string& bits) {
  BitWriter w;
  for (char c : bits) w.put_bit(c == '1');
  w.align_to_byte();
  auto bytes = w.take();
  BitReader r(bytes);
  return table.decode(r);
}

TEST(AddressIncrement, LiteralCodes) {
  EXPECT_EQ(decode_bits(vlc_mb_address_increment(), "1"), 1);
  EXPECT_EQ(decode_bits(vlc_mb_address_increment(), "011"), 2);
  EXPECT_EQ(decode_bits(vlc_mb_address_increment(), "010"), 3);
  EXPECT_EQ(decode_bits(vlc_mb_address_increment(), "00000011000"), 33);
}

TEST(AddressIncrement, RoundtripAllValues) {
  for (int inc = 1; inc <= 200; ++inc) {
    BitWriter w;
    encode_address_increment(w, inc);
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(decode_address_increment(r), inc) << "increment " << inc;
  }
}

TEST(AddressIncrement, EscapeAdds33) {
  BitWriter w;
  encode_address_increment(w, 34);  // escape + code for 1
  w.align_to_byte();
  auto bytes = w.take();
  // 11 bits escape + 1 bit code + padding = 2 bytes.
  EXPECT_EQ(bytes.size(), 2u);
  BitReader r(bytes);
  EXPECT_EQ(decode_address_increment(r), 34);
}

TEST(MbType, IPictureLiterals) {
  using namespace mb_flags;
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::I), "1"), kIntra);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::I), "01"), kIntra | kQuant);
}

TEST(MbType, PPictureLiterals) {
  using namespace mb_flags;
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "1"),
            kMotionForward | kPattern);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "01"), kPattern);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "001"), kMotionForward);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "00011"), kIntra);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "00010"),
            kMotionForward | kPattern | kQuant);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "00001"), kPattern | kQuant);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::P), "000001"), kIntra | kQuant);
}

TEST(MbType, BPictureLiterals) {
  using namespace mb_flags;
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "10"),
            kMotionForward | kMotionBackward);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "11"),
            kMotionForward | kMotionBackward | kPattern);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "010"), kMotionBackward);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "011"),
            kMotionBackward | kPattern);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "0010"), kMotionForward);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "0011"),
            kMotionForward | kPattern);
  EXPECT_EQ(decode_bits(vlc_mb_type(PicType::B), "00011"), kIntra);
}

TEST(CodedBlockPattern, Literals) {
  EXPECT_EQ(decode_bits(vlc_coded_block_pattern(), "111"), 60);
  EXPECT_EQ(decode_bits(vlc_coded_block_pattern(), "1101"), 4);
  EXPECT_EQ(decode_bits(vlc_coded_block_pattern(), "001101"), 3);
  EXPECT_EQ(decode_bits(vlc_coded_block_pattern(), "001100"), 63);
  EXPECT_EQ(decode_bits(vlc_coded_block_pattern(), "000000001"), 0);
}

TEST(CodedBlockPattern, RoundtripAll64) {
  const Vlc& t = vlc_coded_block_pattern();
  for (int cbp = 0; cbp < 64; ++cbp) {
    BitWriter w;
    t.encode(w, cbp);
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(t.decode(r), cbp) << "cbp " << cbp;
  }
}

TEST(MotionCode, LiteralCodesFromStandard) {
  // Sample literal codes from Table B.10.
  EXPECT_EQ(decode_bits(vlc_motion_code(), "1"), 0);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "010"), 1);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "011"), -1);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "0010"), 2);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "0011"), -2);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "00010"), 3);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "0000110"), 4);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "00001010"), 5);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "0000010110"), 8);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "0000010111"), -8);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "00000011000"), 16);
  EXPECT_EQ(decode_bits(vlc_motion_code(), "00000011001"), -16);
}

TEST(MotionCode, RoundtripAllValues) {
  const Vlc& t = vlc_motion_code();
  for (int v = -16; v <= 16; ++v) {
    BitWriter w;
    t.encode(w, v);
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    EXPECT_EQ(t.decode(r), v);
  }
}

TEST(DctDcSize, Literals) {
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_luma(), "100"), 0);
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_luma(), "00"), 1);
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_luma(), "01"), 2);
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_luma(), "111111111"), 11);
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_chroma(), "00"), 0);
  EXPECT_EQ(decode_bits(vlc_dct_dc_size_chroma(), "1111111111"), 11);
}

TEST(DctDcSize, RoundtripAllSizes) {
  for (const Vlc* t : {&vlc_dct_dc_size_luma(), &vlc_dct_dc_size_chroma()}) {
    for (int size = 0; size <= 11; ++size) {
      BitWriter w;
      t->encode(w, size);
      w.align_to_byte();
      auto bytes = w.take();
      BitReader r(bytes);
      EXPECT_EQ(t->decode(r), size);
    }
  }
}

// --- Table B.14 --------------------------------------------------------------

DctCoeff decode_b14_bits(const std::string& bits, bool first) {
  BitWriter w;
  for (char c : bits) w.put_bit(c == '1');
  // Pad with ones so zero-padding cannot silently extend a code.
  for (int i = 0; i < 16; ++i) w.put_bit(1);
  w.align_to_byte();
  auto bytes = w.take();
  BitReader r(bytes);
  return decode_dct_coeff_b14(r, first);
}

TEST(DctCoeffB14, FirstCoefficientConvention) {
  // '1s' as first coefficient: run 0, level +/-1.
  auto c = decode_b14_bits("10", true);
  EXPECT_FALSE(c.eob);
  EXPECT_EQ(c.run, 0);
  EXPECT_EQ(c.level, 1);
  c = decode_b14_bits("11", true);
  EXPECT_EQ(c.level, -1);
  // As subsequent coefficient, '10' is EOB and '11s' is run 0 level 1.
  c = decode_b14_bits("10", false);
  EXPECT_TRUE(c.eob);
  c = decode_b14_bits("110", false);
  EXPECT_EQ(c.run, 0);
  EXPECT_EQ(c.level, 1);
  c = decode_b14_bits("111", false);
  EXPECT_EQ(c.level, -1);
}

TEST(DctCoeffB14, LiteralCodes) {
  auto c = decode_b14_bits("0110", false);  // 011 + sign 0 => run 1 level 1
  EXPECT_EQ(c.run, 1);
  EXPECT_EQ(c.level, 1);
  c = decode_b14_bits("01000", false);  // 0100 + s=0 => run 0 level 2
  EXPECT_EQ(c.run, 0);
  EXPECT_EQ(c.level, 2);
  c = decode_b14_bits("01011", false);  // 0101 + s=1 => run 2 level -1
  EXPECT_EQ(c.run, 2);
  EXPECT_EQ(c.level, -1);
  c = decode_b14_bits("0010110", false);  // 001011 is not a code; 00101+1 => run 0 level -3
  EXPECT_EQ(c.run, 0);
  EXPECT_EQ(c.level, -3);
}

TEST(DctCoeffB14, EscapeRoundtrip) {
  for (int level : {-2047, -129, -41, 41, 300, 2047}) {
    BitWriter w;
    encode_dct_coeff_b14(w, 45, level, false);
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    auto c = decode_dct_coeff_b14(r, false);
    EXPECT_EQ(c.run, 45);
    EXPECT_EQ(c.level, level);
  }
}

TEST(DctCoeffB14, FailuresStopAtTheSameBit) {
  // A forbidden escape level (0 or -2048) fails after its 24 bits; an
  // invalid code (16 zero bits) fails without consuming anything.
  for (uint32_t level : {0x000u, 0x800u}) {
    BitWriter w;
    w.put(0b000001, 6);
    w.put(17, 6);
    w.put(level, 12);
    w.put(0xFFFF, 16);
    auto bytes = w.take();
    BitReader r(bytes);
    DctCoeff c;
    EXPECT_FALSE(try_decode_dct_coeff_b14(r, false, &c));
    EXPECT_EQ(r.bit_pos(), 24u);
  }
  const uint8_t zeros[4] = {};
  BitReader r(zeros);
  DctCoeff c;
  EXPECT_FALSE(try_decode_dct_coeff_b14(r, true, &c));
  EXPECT_EQ(r.bit_pos(), 0u);
}

TEST(DctCoeffB14, TwoLevelTableMatchesFlatTable) {
  // Every 16-bit window, both first-coefficient conventions: the two-level
  // kLut and the decoder over it give what a flat 64K-entry table rebuilt
  // here from kCodes gives: run, level, length, EOB/escape/invalid class,
  // success and the bit where decoding stops.
  struct Flat {
    int run;  // >= 0, or b14::kEob / kEscape / kInvalid
    int level, len;
  };
  std::vector<Flat> flat(1 << 16, Flat{b14::kInvalid, 0, 0});
  auto fill = [&](uint32_t code, int len, Flat v) {
    for (uint32_t j = 0; j < (1u << (16 - len)); ++j)
      flat[(code << (16 - len)) + j] = v;
  };
  for (const b14::Code& e : b14::kCodes) fill(e.code, e.len, {e.run, e.level, e.len});
  fill(b14::kEobCode, b14::kEobLen, {b14::kEob, 0, b14::kEobLen});
  fill(b14::kEscapeCode, b14::kEscapeLen, {b14::kEscape, 0, b14::kEscapeLen});

  for (uint32_t w16 = 0; w16 < (1u << 16); ++w16) {
    const Flat want = flat[w16];
    const b14::Lut got = b14::kLut[b14::index(w16)];
    ASSERT_EQ(got.run, want.run) << w16;
    if (want.run != b14::kInvalid) {
      ASSERT_EQ(got.level, want.level) << w16;
      ASSERT_EQ(got.len, want.len) << w16;
    }
    // The 8 bits after the window hold the sign and the escape's low level
    // bits: all zeros and all ones reach the forbidden escape levels.
    for (uint32_t tail : {0x00u, 0xFFu, (w16 * 0x9E37u >> 4) & 0xFFu}) {
      const uint32_t w24 = (w16 << 8) | tail;
      const uint8_t bytes[4] = {uint8_t(w24 >> 16), uint8_t(w24 >> 8),
                                uint8_t(w24), 0x5A};
      for (bool first : {false, true}) {
        bool ok = true;
        DctCoeff c;
        size_t bits = 0;
        if (first && (w24 >> 23)) {
          c = {false, 0, (w24 >> 22) & 1 ? -1 : 1};
          bits = 2;
        } else if (want.run >= 0) {
          const bool neg = (w24 >> (23 - want.len)) & 1;
          c = {false, want.run, neg ? -want.level : want.level};
          bits = size_t(want.len) + 1;
        } else if (want.run == b14::kEob) {
          c = {true, 0, 0};
          bits = 2;
        } else if (want.run == b14::kEscape) {
          const int level = int32_t(w24 << 20) >> 20;
          ok = level != 0 && level != -2048;
          c = {false, int(w24 >> 12) & 63, level};
          bits = 24;
        } else {
          ok = false;
        }
        BitReader r(bytes);
        DctCoeff d;
        ASSERT_EQ(try_decode_dct_coeff_b14(r, first, &d), ok) << w24 << first;
        ASSERT_EQ(r.bit_pos(), bits) << w24 << first;
        if (!ok) continue;
        ASSERT_EQ(d.eob, c.eob) << w24 << first;
        ASSERT_EQ(d.run, c.run) << w24 << first;
        ASSERT_EQ(d.level, c.level) << w24 << first;
      }
    }
  }
}

TEST(DctCoeffB14, RoundtripTableAndEscapeSpace) {
  // Every (run, level) with run 0..63 and |level| 1..60, both signs, both
  // first/subsequent conventions: encode then decode must be identity.
  for (int run = 0; run <= 63; ++run) {
    for (int mag = 1; mag <= 60; ++mag) {
      for (int sign = -1; sign <= 1; sign += 2) {
        for (bool first : {false, true}) {
          const int level = sign * mag;
          BitWriter w;
          encode_dct_coeff_b14(w, run, level, first);
          encode_eob_b14(w);
          w.align_to_byte();
          auto bytes = w.take();
          BitReader r(bytes);
          auto c = decode_dct_coeff_b14(r, first);
          ASSERT_FALSE(c.eob);
          EXPECT_EQ(c.run, run) << "run=" << run << " level=" << level;
          EXPECT_EQ(c.level, level);
          EXPECT_TRUE(decode_dct_coeff_b14(r, false).eob);
        }
      }
    }
  }
}

TEST(DctCoeffB14, HasCodePredicateMatchesEncoder) {
  // When b14_has_code is true the code must be shorter than the 24-bit escape.
  for (int run = 0; run <= 31; ++run) {
    for (int mag = 1; mag <= 40; ++mag) {
      if (!b14_has_code(run, mag)) continue;
      BitWriter w;
      encode_dct_coeff_b14(w, run, mag, false);
      EXPECT_LT(w.bit_pos(), 24u) << run << "/" << mag;
    }
  }
  EXPECT_TRUE(b14_has_code(0, 1));
  EXPECT_TRUE(b14_has_code(31, 1));
  EXPECT_TRUE(b14_has_code(0, 40));
  EXPECT_FALSE(b14_has_code(0, 41));
  EXPECT_FALSE(b14_has_code(32, 1));
}

TEST(QuantiserScale, LinearAndNonLinear) {
  EXPECT_EQ(quantiser_scale(false, 1), 2);
  EXPECT_EQ(quantiser_scale(false, 31), 62);
  EXPECT_EQ(quantiser_scale(true, 1), 1);
  EXPECT_EQ(quantiser_scale(true, 8), 8);
  EXPECT_EQ(quantiser_scale(true, 9), 10);
  EXPECT_EQ(quantiser_scale(true, 31), 112);
}

}  // namespace
}  // namespace pdw::mpeg2
