#include "mpeg2/tables.h"

#include <unordered_map>

namespace pdw::mpeg2 {

// ---------------------------------------------------------------------------
// Scan patterns and quantiser matrices
// ---------------------------------------------------------------------------

const std::array<uint8_t, 64> kZigzagScan = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

const std::array<uint8_t, 64> kAlternateScan = {
    0,  8,  16, 24, 1,  9,  2,  10, 17, 25, 32, 40, 48, 56, 57, 49,
    41, 33, 26, 18, 3,  11, 4,  12, 19, 27, 34, 42, 50, 58, 35, 43,
    51, 59, 20, 28, 5,  13, 6,  14, 21, 29, 36, 44, 52, 60, 37, 45,
    53, 61, 22, 30, 7,  15, 23, 31, 38, 46, 54, 62, 39, 47, 55, 63};

const std::array<uint8_t, 64> kDefaultIntraQuant = {
    8,  16, 19, 22, 26, 27, 29, 34, 16, 16, 22, 24, 27, 29, 34, 37,
    19, 22, 26, 27, 29, 34, 34, 38, 22, 22, 26, 27, 29, 34, 37, 40,
    22, 26, 27, 29, 32, 35, 40, 48, 26, 27, 29, 32, 35, 40, 48, 58,
    26, 27, 29, 34, 38, 46, 56, 69, 27, 29, 35, 38, 46, 56, 69, 83};

const std::array<uint8_t, 64> kDefaultNonIntraQuant = {
    16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16};

// quantiser_scale_code -> quantiser_scale, non-linear variant (Table 7-6).
static const int kNonLinearQScale[32] = {
    0,  1,  2,  3,  4,  5,   6,   7,   8,   10,  12,  14,  16,  18, 20, 22,
    24, 28, 32, 36, 40, 44,  48,  52,  56,  64,  72,  80,  88,  96, 104, 112};

int quantiser_scale(bool q_scale_type, int code) {
  PDW_CHECK_GE(code, 1);
  PDW_CHECK_LE(code, 31);
  return q_scale_type ? kNonLinearQScale[code] : code * 2;
}

// ---------------------------------------------------------------------------
// Generic VLC
// ---------------------------------------------------------------------------

Vlc::Vlc(const VlcEntry* entries, size_t count)
    : entries_(entries), count_(count) {
  for (size_t i = 0; i < count; ++i) max_len_ = std::max<int>(max_len_, entries[i].len);
  PDW_CHECK_LE(max_len_, 16);
  lut_.assign(size_t(1) << max_len_, LutEntry{0, 0});
  for (size_t i = 0; i < count; ++i) {
    const VlcEntry& e = entries[i];
    const uint32_t base = e.code << (max_len_ - e.len);
    const uint32_t span = 1u << (max_len_ - e.len);
    for (uint32_t j = 0; j < span; ++j) {
      PDW_CHECK_EQ(lut_[base + j].len, 0u) << "VLC table not prefix-free";
      lut_[base + j] = LutEntry{e.value, e.len};
    }
  }
}

int Vlc::decode(BitReader& r) const {
  int value = 0;
  PDW_CHECK(try_decode(r, &value)) << "invalid VLC code";
  return value;
}

const VlcEntry* Vlc::find(int value) const {
  for (size_t i = 0; i < count_; ++i)
    if (entries_[i].value == value) return &entries_[i];
  return nullptr;
}

void Vlc::encode(BitWriter& w, int value) const {
  const VlcEntry* e = find(value);
  PDW_CHECK(e != nullptr) << "no VLC code for value " << value;
  w.put(e->code, e->len);
}

// ---------------------------------------------------------------------------
// Table B.1: macroblock_address_increment
// ---------------------------------------------------------------------------

static const VlcEntry kAddrIncEntries[] = {
    {0b1, 1, 1},
    {0b011, 3, 2},         {0b010, 3, 3},
    {0b0011, 4, 4},        {0b0010, 4, 5},
    {0b00011, 5, 6},       {0b00010, 5, 7},
    {0b0000111, 7, 8},     {0b0000110, 7, 9},
    {0b00001011, 8, 10},   {0b00001010, 8, 11},
    {0b00001001, 8, 12},   {0b00001000, 8, 13},
    {0b00000111, 8, 14},   {0b00000110, 8, 15},
    {0b0000010111, 10, 16}, {0b0000010110, 10, 17},
    {0b0000010101, 10, 18}, {0b0000010100, 10, 19},
    {0b0000010011, 10, 20}, {0b0000010010, 10, 21},
    {0b00000100011, 11, 22}, {0b00000100010, 11, 23},
    {0b00000100001, 11, 24}, {0b00000100000, 11, 25},
    {0b00000011111, 11, 26}, {0b00000011110, 11, 27},
    {0b00000011101, 11, 28}, {0b00000011100, 11, 29},
    {0b00000011011, 11, 30}, {0b00000011010, 11, 31},
    {0b00000011001, 11, 32}, {0b00000011000, 11, 33},
};
// macroblock_escape: 0000 0001 000 (11 bits), adds 33.
static constexpr uint32_t kAddrEscapeCode = 0b00000001000;
static constexpr int kAddrEscapeLen = 11;

const Vlc& vlc_mb_address_increment() {
  static const Vlc table(kAddrIncEntries, std::size(kAddrIncEntries));
  return table;
}

int decode_address_increment(BitReader& r) {
  int increment = 0;
  PDW_CHECK(try_decode_address_increment(r, &increment))
      << "invalid macroblock_address_increment";
  return increment;
}

bool try_decode_address_increment(BitReader& r, int* increment) {
  int escapes = 0;
  while (r.peek(kAddrEscapeLen) == kAddrEscapeCode) {
    r.skip(kAddrEscapeLen);
    escapes += 33;
    // A zero-filled overrun region peeks as all-zero bits, which matches the
    // escape code forever; bound the loop so a truncated slice terminates.
    if (escapes >= 1 << 20 || r.overrun()) return false;
  }
  int base = 0;
  if (!vlc_mb_address_increment().try_decode(r, &base)) return false;
  *increment = escapes + base;
  return true;
}

void encode_address_increment(BitWriter& w, int increment) {
  PDW_CHECK_GE(increment, 1);
  while (increment > 33) {
    w.put(kAddrEscapeCode, kAddrEscapeLen);
    increment -= 33;
  }
  vlc_mb_address_increment().encode(w, increment);
}

// ---------------------------------------------------------------------------
// Tables B.2/B.3/B.4: macroblock_type
// ---------------------------------------------------------------------------

using namespace mb_flags;

static const VlcEntry kMbTypeI[] = {
    {0b1, 1, kIntra},
    {0b01, 2, kIntra | kQuant},
};

static const VlcEntry kMbTypeP[] = {
    {0b1, 1, kMotionForward | kPattern},
    {0b01, 2, kPattern},  // No MC, coded
    {0b001, 3, kMotionForward},
    {0b00011, 5, kIntra},
    {0b00010, 5, kMotionForward | kPattern | kQuant},
    {0b00001, 5, kPattern | kQuant},
    {0b000001, 6, kIntra | kQuant},
};

static const VlcEntry kMbTypeB[] = {
    {0b10, 2, kMotionForward | kMotionBackward},
    {0b11, 2, kMotionForward | kMotionBackward | kPattern},
    {0b010, 3, kMotionBackward},
    {0b011, 3, kMotionBackward | kPattern},
    {0b0010, 4, kMotionForward},
    {0b0011, 4, kMotionForward | kPattern},
    {0b00011, 5, kIntra},
    {0b00010, 5, kMotionForward | kMotionBackward | kPattern | kQuant},
    {0b000011, 6, kMotionForward | kPattern | kQuant},
    {0b000010, 6, kMotionBackward | kPattern | kQuant},
    {0b000001, 6, kIntra | kQuant},
};

const Vlc& vlc_mb_type(PicType type) {
  static const Vlc table_i(kMbTypeI, std::size(kMbTypeI));
  static const Vlc table_p(kMbTypeP, std::size(kMbTypeP));
  static const Vlc table_b(kMbTypeB, std::size(kMbTypeB));
  switch (type) {
    case PicType::I: return table_i;
    case PicType::P: return table_p;
    case PicType::B: return table_b;
  }
  PDW_CHECK(false) << "bad picture type";
  __builtin_unreachable();
}

// ---------------------------------------------------------------------------
// Table B.9: coded_block_pattern (4:2:0)
// ---------------------------------------------------------------------------

static const VlcEntry kCbpEntries[] = {
    {0b111, 3, 60},
    {0b1101, 4, 4},   {0b1100, 4, 8},   {0b1011, 4, 16},  {0b1010, 4, 32},
    {0b10011, 5, 12}, {0b10010, 5, 48}, {0b10001, 5, 20}, {0b10000, 5, 40},
    {0b01111, 5, 28}, {0b01110, 5, 44}, {0b01101, 5, 52}, {0b01100, 5, 56},
    {0b01011, 5, 1},  {0b01010, 5, 61}, {0b01001, 5, 2},  {0b01000, 5, 62},
    {0b001111, 6, 24}, {0b001110, 6, 36}, {0b001101, 6, 3}, {0b001100, 6, 63},
    {0b0010111, 7, 5},  {0b0010110, 7, 9},  {0b0010101, 7, 17},
    {0b0010100, 7, 33}, {0b0010011, 7, 6},  {0b0010010, 7, 10},
    {0b0010001, 7, 18}, {0b0010000, 7, 34},
    {0b00011111, 8, 7},  {0b00011110, 8, 11}, {0b00011101, 8, 19},
    {0b00011100, 8, 35}, {0b00011011, 8, 13}, {0b00011010, 8, 49},
    {0b00011001, 8, 21}, {0b00011000, 8, 41}, {0b00010111, 8, 14},
    {0b00010110, 8, 50}, {0b00010101, 8, 22}, {0b00010100, 8, 42},
    {0b00010011, 8, 15}, {0b00010010, 8, 51}, {0b00010001, 8, 23},
    {0b00010000, 8, 43}, {0b00001111, 8, 25}, {0b00001110, 8, 37},
    {0b00001101, 8, 26}, {0b00001100, 8, 38}, {0b00001011, 8, 29},
    {0b00001010, 8, 45}, {0b00001001, 8, 53}, {0b00001000, 8, 57},
    {0b00000111, 8, 30}, {0b00000110, 8, 46}, {0b00000101, 8, 54},
    {0b00000100, 8, 58},
    {0b000000111, 9, 31}, {0b000000110, 9, 47}, {0b000000101, 9, 55},
    {0b000000100, 9, 59}, {0b000000001, 9, 0},
    {0b0000000111, 10, 27}, {0b0000000110, 10, 39},
};

const Vlc& vlc_coded_block_pattern() {
  static const Vlc table(kCbpEntries, std::size(kCbpEntries));
  return table;
}

// ---------------------------------------------------------------------------
// Table B.10: motion_code
//
// Structurally, the code for magnitude m >= 1 is the B.1 code for (2m) with
// its final bit replaced by the sign (0 positive, 1 negative); magnitude 0 is
// '1'. We generate the table from B.1 and cross-check it in unit tests
// against literal codes from the standard.
// ---------------------------------------------------------------------------

static std::vector<VlcEntry> make_motion_code_entries() {
  std::vector<VlcEntry> out;
  out.push_back({0b1, 1, 0});
  for (int m = 1; m <= 16; ++m) {
    const VlcEntry* base = vlc_mb_address_increment().find(2 * m);
    PDW_CHECK(base != nullptr);
    const uint32_t prefix = base->code >> 1;  // drop the final bit
    const uint8_t len = base->len;
    out.push_back({(prefix << 1) | 0u, len, int16_t(m)});    // positive
    out.push_back({(prefix << 1) | 1u, len, int16_t(-m)});   // negative
  }
  return out;
}

const Vlc& vlc_motion_code() {
  static const std::vector<VlcEntry> entries = make_motion_code_entries();
  static const Vlc table(entries.data(), entries.size());
  return table;
}

// ---------------------------------------------------------------------------
// Tables B.12/B.13: dct_dc_size
// ---------------------------------------------------------------------------

static const VlcEntry kDcSizeLuma[] = {
    {0b100, 3, 0}, {0b00, 2, 1},  {0b01, 2, 2},   {0b101, 3, 3},
    {0b110, 3, 4}, {0b1110, 4, 5}, {0b11110, 5, 6}, {0b111110, 6, 7},
    {0b1111110, 7, 8}, {0b11111110, 8, 9}, {0b111111110, 9, 10},
    {0b111111111, 9, 11},
};

static const VlcEntry kDcSizeChroma[] = {
    {0b00, 2, 0},  {0b01, 2, 1},   {0b10, 2, 2},   {0b110, 3, 3},
    {0b1110, 4, 4}, {0b11110, 5, 5}, {0b111110, 6, 6}, {0b1111110, 7, 7},
    {0b11111110, 8, 8}, {0b111111110, 9, 9}, {0b1111111110, 10, 10},
    {0b1111111111, 10, 11},
};

const Vlc& vlc_dct_dc_size_luma() {
  static const Vlc table(kDcSizeLuma, std::size(kDcSizeLuma));
  return table;
}

const Vlc& vlc_dct_dc_size_chroma() {
  static const Vlc table(kDcSizeChroma, std::size(kDcSizeChroma));
  return table;
}

// ---------------------------------------------------------------------------
// Table B.14: DCT coefficients, table zero
// ---------------------------------------------------------------------------

namespace b14 {

constexpr std::array<Code, 111> kCodes = {{
    {0, 1, 0b11, 2},
    {1, 1, 0b011, 3},
    {0, 2, 0b0100, 4},
    {2, 1, 0b0101, 4},
    {0, 3, 0b00101, 5},
    {3, 1, 0b00111, 5},
    {4, 1, 0b00110, 5},
    {1, 2, 0b000110, 6},
    {5, 1, 0b000111, 6},
    {6, 1, 0b000101, 6},
    {7, 1, 0b000100, 6},
    {0, 4, 0b0000110, 7},
    {2, 2, 0b0000100, 7},
    {8, 1, 0b0000111, 7},
    {9, 1, 0b0000101, 7},
    {0, 5, 0b00100110, 8},
    {0, 6, 0b00100001, 8},
    {1, 3, 0b00100101, 8},
    {3, 2, 0b00100100, 8},
    {10, 1, 0b00100111, 8},
    {11, 1, 0b00100011, 8},
    {12, 1, 0b00100010, 8},
    {13, 1, 0b00100000, 8},
    {0, 7, 0b0000001010, 10},
    {1, 4, 0b0000001100, 10},
    {2, 3, 0b0000001011, 10},
    {4, 2, 0b0000001111, 10},
    {5, 2, 0b0000001001, 10},
    {14, 1, 0b0000001110, 10},
    {15, 1, 0b0000001101, 10},
    {16, 1, 0b0000001000, 10},
    {0, 8, 0b000000011101, 12},
    {0, 9, 0b000000011000, 12},
    {0, 10, 0b000000010011, 12},
    {0, 11, 0b000000010000, 12},
    {1, 5, 0b000000011011, 12},
    {2, 4, 0b000000010100, 12},
    {3, 3, 0b000000011100, 12},
    {4, 3, 0b000000010010, 12},
    {6, 2, 0b000000011110, 12},
    {7, 2, 0b000000010101, 12},
    {8, 2, 0b000000010001, 12},
    {17, 1, 0b000000011111, 12},
    {18, 1, 0b000000011010, 12},
    {19, 1, 0b000000011001, 12},
    {20, 1, 0b000000010111, 12},
    {21, 1, 0b000000010110, 12},
    {0, 12, 0b0000000011010, 13},
    {0, 13, 0b0000000011001, 13},
    {0, 14, 0b0000000011000, 13},
    {0, 15, 0b0000000010111, 13},
    {1, 6, 0b0000000010110, 13},
    {1, 7, 0b0000000010101, 13},
    {2, 5, 0b0000000010100, 13},
    {3, 4, 0b0000000010011, 13},
    {5, 3, 0b0000000010010, 13},
    {9, 2, 0b0000000010001, 13},
    {10, 2, 0b0000000010000, 13},
    {22, 1, 0b0000000011111, 13},
    {23, 1, 0b0000000011110, 13},
    {24, 1, 0b0000000011101, 13},
    {25, 1, 0b0000000011100, 13},
    {26, 1, 0b0000000011011, 13},
    {0, 16, 0b00000000011111, 14},
    {0, 17, 0b00000000011110, 14},
    {0, 18, 0b00000000011101, 14},
    {0, 19, 0b00000000011100, 14},
    {0, 20, 0b00000000011011, 14},
    {0, 21, 0b00000000011010, 14},
    {0, 22, 0b00000000011001, 14},
    {0, 23, 0b00000000011000, 14},
    {0, 24, 0b00000000010111, 14},
    {0, 25, 0b00000000010110, 14},
    {0, 26, 0b00000000010101, 14},
    {0, 27, 0b00000000010100, 14},
    {0, 28, 0b00000000010011, 14},
    {0, 29, 0b00000000010010, 14},
    {0, 30, 0b00000000010001, 14},
    {0, 31, 0b00000000010000, 14},
    {0, 32, 0b000000000011000, 15},
    {0, 33, 0b000000000010111, 15},
    {0, 34, 0b000000000010110, 15},
    {0, 35, 0b000000000010101, 15},
    {0, 36, 0b000000000010100, 15},
    {0, 37, 0b000000000010011, 15},
    {0, 38, 0b000000000010010, 15},
    {0, 39, 0b000000000010001, 15},
    {0, 40, 0b000000000010000, 15},
    {1, 8, 0b000000000011111, 15},
    {1, 9, 0b000000000011110, 15},
    {1, 10, 0b000000000011101, 15},
    {1, 11, 0b000000000011100, 15},
    {1, 12, 0b000000000011011, 15},
    {1, 13, 0b000000000011010, 15},
    {1, 14, 0b000000000011001, 15},
    {1, 15, 0b0000000000011111, 16},
    {1, 16, 0b0000000000011110, 16},
    {1, 17, 0b0000000000011101, 16},
    {1, 18, 0b0000000000011100, 16},
    {11, 2, 0b0000000000011011, 16},
    {12, 2, 0b0000000000011010, 16},
    {13, 2, 0b0000000000011001, 16},
    {14, 2, 0b0000000000011000, 16},
    {15, 2, 0b0000000000010111, 16},
    {6, 3, 0b0000000000010110, 16},
    {16, 2, 0b0000000000010101, 16},
    {27, 1, 0b0000000000010100, 16},
    {28, 1, 0b0000000000010011, 16},
    {29, 1, 0b0000000000010010, 16},
    {30, 1, 0b0000000000010001, 16},
    {31, 1, 0b0000000000010000, 16},
}};
// A short initializer list would zero-fill the tail.
static_assert(kCodes.back().len != 0);

}  // namespace b14

namespace {

// Encode lookup keyed by run * 64 + |level| (levels above 40 always escape).
const std::unordered_map<int, const b14::Code*>& b14_encode_map() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<int, const b14::Code*>();
    for (const b14::Code& e : b14::kCodes) (*m)[e.run * 64 + e.level] = &e;
    return m;
  }();
  return *map;
}

}  // namespace

namespace b14 {

// Built at compile time; a code that overlaps another (B.14 not prefix-free)
// fails the build. A code of up to 10 bits fills its span of first-level
// slots; a longer one starts with seven zeros and fills its span of the
// second level, indexed by the window's low 9 bits.
constexpr std::array<Lut, kLutSize> make_lut() {
  std::array<Lut, kLutSize> t{};
  for (Lut& e : t) e = Lut{kInvalid, 0, 0};
  auto fill = [&](uint16_t code, int len, Lut v) {
    const uint32_t base = uint32_t(code) << (16 - len);
    for (uint32_t j = 0; j < (1u << (16 - len)); ++j) {
      if ((len <= kFirstBits) != (base + j >= kSecondLevelBelow))
        throw "B.14 code in the wrong level";
      Lut& slot = t[index(base + j)];
      if (slot.run != kInvalid &&
          (slot.run != v.run || slot.level != v.level || slot.len != v.len))
        throw "B.14 not prefix-free";
      slot = v;
    }
  };
  for (const Code& e : kCodes)
    fill(e.code, e.len, Lut{int8_t(e.run), e.level, e.len});
  fill(kEobCode, kEobLen, Lut{kEob, 0, kEobLen});
  fill(kEscapeCode, kEscapeLen, Lut{kEscape, 0, kEscapeLen});
  return t;
}

constexpr std::array<Lut, kLutSize> kLut = make_lut();

}  // namespace b14

DctCoeff decode_dct_coeff_b14(BitReader& r, bool first) {
  DctCoeff c;
  PDW_CHECK(try_decode_dct_coeff_b14(r, first, &c))
      << "invalid DCT coefficient code";
  return c;
}

bool b14_has_code(int run, int level) {
  const int mag = level < 0 ? -level : level;
  if (run > 31 || mag > 40) return false;
  return b14_encode_map().count(run * 64 + mag) != 0;
}

void encode_dct_coeff_b14(BitWriter& w, int run, int level, bool first) {
  PDW_CHECK(level != 0);
  const int mag = level < 0 ? -level : level;
  if (first && run == 0 && mag == 1) {
    w.put_bit(1);
    w.put_bit(level < 0 ? 1 : 0);
    return;
  }
  const auto& map = b14_encode_map();
  const auto it = run <= 31 && mag <= 40 ? map.find(run * 64 + mag) : map.end();
  if (it != map.end()) {
    const b14::Code& e = *it->second;
    w.put(e.code, e.len);
    w.put_bit(level < 0 ? 1 : 0);
    return;
  }
  PDW_CHECK_LE(run, 63);
  PDW_CHECK_GE(level, -2047);
  PDW_CHECK_LE(level, 2047);
  w.put(b14::kEscapeCode, b14::kEscapeLen);
  w.put(uint32_t(run), 6);
  w.put(uint32_t(level) & 0xFFF, 12);
}

void encode_eob_b14(BitWriter& w) { w.put(b14::kEobCode, b14::kEobLen); }

double SequenceHeader::frame_rate() const {
  static const double kRates[16] = {0,     23.976, 24, 25, 29.97, 30, 50,
                                    59.94, 60,     30, 30, 30,    30, 30,
                                    30,    30};
  return kRates[frame_rate_code & 15];
}

}  // namespace pdw::mpeg2
