// Elementary-stream edits shared by the splitter and tile decoder tests:
// damaged or re-ordered slice data that a serial decoder still decodes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace pdw::core {

// Byte offsets of every start code (00 00 01 xx) in `es`.
inline std::vector<size_t> start_codes(const std::vector<uint8_t>& es) {
  std::vector<size_t> at;
  for (size_t i = 0; i + 3 < es.size(); ++i)
    if (es[i] == 0 && es[i + 1] == 0 && es[i + 2] == 1) at.push_back(i);
  return at;
}

// `es` with one extra slice in the second I picture: row `row` of the first
// I picture, placed after every slice of its new picture. The serial
// decoder overwrites the row with it (last slice wins).
inline std::vector<uint8_t> with_reclaimed_row(
    const std::vector<uint8_t>& es, int row) {
  const std::vector<size_t> sc = start_codes(es);
  auto code = [&](size_t k) { return es[sc[k] + 3]; };
  auto end_of = [&](size_t k) {
    return k + 1 < sc.size() ? sc[k + 1] : es.size();
  };
  std::vector<size_t> i_pictures;  // start-code index of each I picture
  for (size_t k = 0; k < sc.size(); ++k)
    if (code(k) == 0x00 && ((es[sc[k] + 5] >> 3) & 7) == 1)
      i_pictures.push_back(k);
  EXPECT_GE(i_pictures.size(), 2u);
  if (i_pictures.size() < 2) return es;

  size_t donor = 0;  // the row's slice in the first I picture
  for (size_t k = i_pictures[0] + 1; k < sc.size() && code(k) != 0x00; ++k)
    if (code(k) == uint8_t(row + 1)) donor = k;
  size_t insert_at = 0;  // end of the second I picture's last slice
  for (size_t k = i_pictures[1] + 1; k < sc.size(); ++k) {
    if (code(k) >= 0x01 && code(k) <= 0xAF)
      insert_at = end_of(k);
    else if (code(k) == 0x00 || code(k) == 0xB3 || code(k) == 0xB8 ||
             code(k) == 0xB7)
      break;
  }
  EXPECT_NE(donor, 0u);
  EXPECT_NE(insert_at, 0u);
  std::vector<uint8_t> out(es.begin(), es.begin() + ptrdiff_t(insert_at));
  out.insert(out.end(), es.begin() + ptrdiff_t(sc[donor]),
             es.begin() + ptrdiff_t(end_of(donor)));
  out.insert(out.end(), es.begin() + ptrdiff_t(insert_at), es.end());
  return out;
}

// `es` with `hits` bytes of slice data overwritten, deterministically per
// `seed`. Each slice's start code and the 4 bytes after it (its header)
// are spared so the slice is still found, and no byte becomes 0x00 or
// 0x01, so no start code appears or vanishes: the damage drops slices at
// their bodies and the splitter conceals what they held.
inline std::vector<uint8_t> with_flipped_slices(
    const std::vector<uint8_t>& es, uint64_t seed, int hits) {
  const std::vector<size_t> sc = start_codes(es);
  std::vector<std::pair<size_t, size_t>> bodies;
  for (size_t k = 0; k < sc.size(); ++k) {
    const uint8_t code = es[sc[k] + 3];
    const size_t end = k + 1 < sc.size() ? sc[k + 1] : es.size();
    if (code >= 0x01 && code <= 0xAF && sc[k] + 8 < end)
      bodies.emplace_back(sc[k] + 8, end);
  }
  std::vector<uint8_t> out = es;
  if (bodies.empty()) return out;
  SplitMix64 rng(seed);
  for (int h = 0; h < hits; ++h) {
    const auto& [lo, hi] = bodies[rng.next_below(uint32_t(bodies.size()))];
    uint8_t& b = out[lo + size_t(rng.next_below(uint32_t(hi - lo)))];
    const uint8_t flipped = uint8_t(b ^ (1 + rng.next_below(255)));
    b = flipped <= 0x01 ? uint8_t(flipped | 0x80) : flipped;
  }
  return out;
}

}  // namespace pdw::core
