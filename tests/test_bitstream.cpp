// Bit reader/writer and start-code scanner unit tests.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/bit_reader.h"
#include "bitstream/bit_writer.h"
#include "bitstream/start_code.h"
#include "common/stats.h"

namespace pdw {
namespace {

TEST(BitWriter, WritesMsbFirst) {
  BitWriter w;
  w.put(0b1011, 4);
  w.put(0b0010, 4);
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110010);
}

TEST(BitWriter, AlignPadsWithZeros) {
  BitWriter w;
  w.put_bit(1);
  w.align_to_byte();
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);
}

TEST(BitWriter, StartCodeIsByteAligned) {
  BitWriter w;
  w.put(0b101, 3);
  w.put_start_code(0xB3);
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], 0xA0);
  EXPECT_EQ(bytes[1], 0x00);
  EXPECT_EQ(bytes[2], 0x00);
  EXPECT_EQ(bytes[3], 0x01);
  EXPECT_EQ(bytes[4], 0xB3);
}

TEST(BitReader, ReadsBackWrittenBits) {
  BitWriter w;
  w.put(0x5A, 8);
  w.put(0x3, 2);
  w.put(0x1FFFF, 17);
  w.put(0, 5);
  auto bytes = w.take();

  BitReader r(bytes);
  EXPECT_EQ(r.read(8), 0x5Au);
  EXPECT_EQ(r.read(2), 0x3u);
  EXPECT_EQ(r.read(17), 0x1FFFFu);
  EXPECT_EQ(r.read(5), 0u);
}

TEST(BitReader, PeekDoesNotConsume) {
  const uint8_t data[] = {0xAB, 0xCD};
  BitReader r(data);
  EXPECT_EQ(r.peek(8), 0xABu);
  EXPECT_EQ(r.peek(16), 0xABCDu);
  EXPECT_EQ(r.bit_pos(), 0u);
  r.skip(4);
  EXPECT_EQ(r.peek(8), 0xBCu);
}

TEST(BitReader, BitOffsetConstructor) {
  const uint8_t data[] = {0b10110100, 0b01011111};
  BitReader r(data, 3);
  EXPECT_EQ(r.read(5), 0b10100u);
  EXPECT_EQ(r.read(4), 0b0101u);
}

TEST(BitReader, ZeroPadsPastEnd) {
  const uint8_t data[] = {0xFF};
  BitReader r(data);
  EXPECT_EQ(r.read(8), 0xFFu);
  EXPECT_EQ(r.read(16), 0u);  // past end reads as zero
  EXPECT_TRUE(r.overrun());
}

TEST(BitReader, ReadWide) {
  BitWriter w;
  w.put(0xDEADBEEF >> 16, 16);
  w.put(0xDEADBEEF & 0xFFFF, 16);
  auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.read_wide(32), 0xDEADBEEFu);
}

TEST(BitReader, Full32BitReadAndPeek) {
  // A whole start code (prefix + code byte) in one 32-bit access, including
  // from an unaligned position.
  const uint8_t data[] = {0x00, 0x00, 0x01, 0xB3, 0xCA, 0xFE, 0xBA, 0xBE};
  BitReader r(data);
  EXPECT_EQ(r.peek(32), 0x000001B3u);
  EXPECT_EQ(r.bit_pos(), 0u);
  EXPECT_EQ(r.read(32), 0x000001B3u);
  EXPECT_EQ(r.read(32), 0xCAFEBABEu);
  EXPECT_FALSE(r.overrun());

  BitReader r2(data, 4);  // mid-byte start
  EXPECT_EQ(r2.read(32), 0x00001B3Cu);
}

TEST(BitReader, SkipWiderThan32) {
  const uint8_t data[] = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5A};
  BitReader r(data);
  r.skip(56);
  EXPECT_EQ(r.read(8), 0x5Au);
}

TEST(BitReader, Randomized32BitRoundtrip) {
  SplitMix64 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    BitWriter w;
    std::vector<std::pair<uint32_t, int>> fields;
    for (int i = 0; i < 100; ++i) {
      const int len = 25 + int(rng.next_below(8));  // 25..32: the new range
      const uint32_t v =
          uint32_t(rng.next()) & uint32_t((uint64_t(1) << len) - 1);
      fields.emplace_back(v, len);
      w.put(v, len);
    }
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    for (auto [v, len] : fields) EXPECT_EQ(r.read(len), v);
  }
}

TEST(BitReader, RandomizedRoundtrip) {
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<std::pair<uint32_t, int>> fields;
    for (int i = 0; i < 200; ++i) {
      const int len = 1 + int(rng.next_below(24));
      const uint32_t v = uint32_t(rng.next()) & ((1u << len) - 1);
      fields.emplace_back(v, len);
      w.put(v, len);
    }
    w.align_to_byte();
    auto bytes = w.take();
    BitReader r(bytes);
    for (auto [v, len] : fields) EXPECT_EQ(r.read(len), v);
  }
}

// Differential test against a bit-at-a-time model: random buffers of 0-48
// bytes, random starting bit offsets (up to a byte past the end), and random
// peek/read/skip sequences of 1-32 bits. Buffers shorter and longer than the
// 8-byte bulk refill, and positions on either side of the last 8 bytes,
// cover the bulk/byte-wise boundary; reads run past the end to cover the
// zero-fill and the sticky overrun flag.
TEST(BitReader, MatchesBitAtATimeModel) {
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<uint8_t> data(rng.next_below(49));
    for (uint8_t& b : data) b = uint8_t(rng.next());
    const size_t size_bits = data.size() * 8;
    auto bit_at = [&](size_t p) {
      return p < size_bits ? (data[p / 8] >> (7 - p % 8)) & 1u : 0u;
    };
    auto model_peek = [&](size_t p, int n) {
      uint32_t v = 0;
      for (int i = 0; i < n; ++i) v = (v << 1) | bit_at(p + size_t(i));
      return v;
    };

    size_t pos = rng.next_below(uint32_t(size_bits + 9));
    bool overrun = pos > size_bits;
    BitReader r(data, pos);
    for (int op = 0; op < 40; ++op) {
      const int n = 1 + int(rng.next_below(32));
      switch (rng.next_below(3)) {
        case 0:
          ASSERT_EQ(r.peek(n), model_peek(pos, n))
              << "trial " << trial << " op " << op << " peek " << n;
          break;
        case 1:
          ASSERT_EQ(r.read(n), model_peek(pos, n))
              << "trial " << trial << " op " << op << " read " << n;
          pos += size_t(n);
          break;
        default:
          r.skip(size_t(n));
          pos += size_t(n);
          break;
      }
      overrun = overrun || pos > size_bits;
      ASSERT_EQ(r.bit_pos(), pos) << "trial " << trial << " op " << op;
      ASSERT_EQ(r.overrun(), overrun) << "trial " << trial << " op " << op;
      ASSERT_EQ(r.bits_left(), pos >= size_bits ? 0 : size_bits - pos);
    }
  }
}

TEST(BitReader, OverrunTurnsTrueExactlyPastTheEnd) {
  // overrun() is derived from the position, which never moves back: false
  // up to and at the end of the buffer, true from the first bit past it
  // on, whether the reader got there by its bit-offset constructor, by
  // skip() (one bit or many at a time) or by reads. Short buffers take
  // the byte-wise refill, 16 bytes the bulk one.
  for (size_t size : {1u, 3u, 16u}) {
    std::vector<uint8_t> data(size, 0xA5);
    const size_t end = size * 8;
    for (size_t offset = 0; offset <= end + 2; ++offset) {
      BitReader r(data, offset);
      EXPECT_EQ(r.overrun(), offset > end) << size << " " << offset;
      for (size_t pos = offset + 1; pos <= end + 40; ++pos) {
        r.skip(1);
        ASSERT_EQ(r.overrun(), pos > end) << size << " " << offset << " " << pos;
      }
      r.read(32);
      r.peek(32);
      EXPECT_TRUE(r.overrun());
    }
    BitReader exact(data);
    exact.skip(end);
    EXPECT_FALSE(exact.overrun()) << size;
    exact.peek(32);  // peeking past the end moves nothing
    EXPECT_FALSE(exact.overrun()) << size;
    BitReader wide(data);
    wide.skip(end + 33);  // one skip wider than 32 bits across the end
    EXPECT_TRUE(wide.overrun()) << size;
  }
}

TEST(BitReader, AlignToByte) {
  const uint8_t data[] = {0x12, 0x34, 0x56};
  BitReader r(data);
  r.skip(3);
  r.align_to_byte();
  EXPECT_EQ(r.bit_pos(), 8u);
  r.align_to_byte();  // idempotent when aligned
  EXPECT_EQ(r.bit_pos(), 8u);
  EXPECT_EQ(r.read(8), 0x34u);
}

TEST(StartCode, FindsSimpleCode) {
  const uint8_t data[] = {0x11, 0x00, 0x00, 0x01, 0xB3, 0x44};
  auto hit = find_start_code(data, 0);
  EXPECT_EQ(hit.offset, 1u);
  EXPECT_EQ(hit.code, 0xB3);
}

TEST(StartCode, FindsCodeAtStart) {
  const uint8_t data[] = {0x00, 0x00, 0x01, 0x00};
  auto hit = find_start_code(data, 0);
  EXPECT_EQ(hit.offset, 0u);
  EXPECT_EQ(hit.code, 0x00);
}

TEST(StartCode, IgnoresFalsePrefixes) {
  // 0x00 0x01 without a second leading zero must not match.
  const uint8_t data[] = {0x00, 0x01, 0x02, 0x00, 0x00, 0x02, 0x01, 0xFF};
  auto hit = find_start_code(data, 0);
  EXPECT_EQ(hit.offset, sizeof(data));
}

TEST(StartCode, FindAllReturnsInOrder) {
  BitWriter w;
  w.put_start_code(0xB3);
  w.put(0xAAAA, 16);
  w.put_start_code(0x00);
  w.put(0xBB, 8);
  w.put_start_code(0x01);
  auto bytes = w.take();
  auto hits = find_all_start_codes(bytes);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].code, 0xB3);
  EXPECT_EQ(hits[1].code, 0x00);
  EXPECT_EQ(hits[2].code, 0x01);
}

TEST(StartCode, OverlappingZeroRuns) {
  // 00 00 00 01 xx: the start code begins at offset 1.
  const uint8_t data[] = {0x00, 0x00, 0x00, 0x01, 0x42, 0x00};
  auto hit = find_start_code(data, 0);
  EXPECT_EQ(hit.offset, 1u);
  EXPECT_EQ(hit.code, 0x42);
}

TEST(ScanPictures, SplitsAtPictureBoundaries) {
  BitWriter w;
  w.put_start_code(0xB3);  // sequence header
  w.put(0x12345678, 32);
  w.put_start_code(0xB8);  // GOP
  w.put(0x9A, 8);
  w.put_start_code(0x00);  // picture 0
  w.put(0x11, 8);
  w.put_start_code(0x01);  // slice
  w.put(0x22, 8);
  w.put_start_code(0x00);  // picture 1
  w.put(0x33, 8);
  w.put_start_code(0xB7);  // sequence end
  auto bytes = w.take();

  auto spans = scan_pictures(bytes);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0u);  // includes sequence + GOP headers
  EXPECT_TRUE(spans[0].has_sequence_header);
  EXPECT_TRUE(spans[0].has_gop_header);
  EXPECT_FALSE(spans[1].has_sequence_header);
  EXPECT_EQ(spans[0].end, spans[1].begin);
  // Sequence end code is not part of any picture span.
  EXPECT_EQ(spans[1].end, bytes.size() - 4);
}

TEST(ScanPictures, EmptyStream) {
  EXPECT_TRUE(scan_pictures({}).empty());
}

TEST(ScanPictures, PictureWithoutHeaders) {
  BitWriter w;
  w.put_start_code(0x00);
  w.put(0xFF, 8);
  auto bytes = w.take();
  auto spans = scan_pictures(bytes);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].has_sequence_header);
  EXPECT_EQ(spans[0].end, bytes.size());
}

}  // namespace
}  // namespace pdw
