#include "net/fault.h"

#include <algorithm>
#include <array>

#include "common/stats.h"

namespace pdw::net {

namespace {

// CRC-32 (IEEE, reflected), slice-by-8: table k maps a byte to its CRC
// contribution when k more bytes follow it, so one step folds 8 bytes with
// 8 independent lookups. Tables built on first use.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
      for (size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

uint32_t load_le32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

}  // namespace

uint32_t crc32(std::span<const uint8_t> data) {
  const CrcTables& t = crc_tables();
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = load_le32(p) ^ c;
    const uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint64_t FaultInjector::key_stream(int src, int dst, uint64_t ordinal,
                                   uint64_t salt) const {
  // Mix the link identity and ordinal into one 64-bit key; SplitMix64 then
  // whitens it. Deterministic per (seed, src, dst, ordinal, salt).
  uint64_t key = seed_;
  key ^= 0x9E3779B97F4A7C15ULL * (uint64_t(uint32_t(src)) + 1);
  key ^= 0xC2B2AE3D27D4EB4FULL * (uint64_t(uint32_t(dst)) + 1);
  key ^= 0x165667B19E3779F9ULL * (ordinal + 1);
  key ^= salt * 0x27D4EB2F165667C5ULL;
  return SplitMix64(key).next();
}

FaultDecision FaultInjector::decide(int src, int dst, uint64_t link_ordinal,
                                    uint64_t dst_deliveries,
                                    size_t payload_size) const {
  FaultDecision d;

  // Exact scheduled events first.
  for (const FaultEvent& ev : events_) {
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        if (ev.dst == dst && dst_deliveries == ev.at_ordinal) d.crash_dst = true;
        break;
      case FaultEvent::Kind::kStall:
        if (ev.dst == dst && dst_deliveries >= ev.at_ordinal &&
            dst_deliveries < ev.at_ordinal + uint64_t(ev.param))
          d.delay_hold = std::max(d.delay_hold, std::max(1, ev.param));
        break;
      case FaultEvent::Kind::kDrop:
      case FaultEvent::Kind::kDuplicate:
      case FaultEvent::Kind::kCorrupt:
      case FaultEvent::Kind::kDelay: {
        const bool match = (ev.src < 0 || ev.src == src) && ev.dst == dst &&
                           link_ordinal == ev.at_ordinal;
        if (!match) break;
        if (ev.kind == FaultEvent::Kind::kDrop) d.drop = true;
        if (ev.kind == FaultEvent::Kind::kDuplicate) d.dup = true;
        if (ev.kind == FaultEvent::Kind::kCorrupt) d.corrupt = true;
        if (ev.kind == FaultEvent::Kind::kDelay)
          d.delay_hold = std::max(d.delay_hold, std::max(1, ev.param));
        break;
      }
    }
  }

  // Seeded per-message probabilities.
  if (rates_.drop > 0 || rates_.dup > 0 || rates_.corrupt > 0 ||
      rates_.delay > 0) {
    SplitMix64 rng(key_stream(src, dst, link_ordinal, /*salt=*/1));
    if (rng.next_double() < rates_.drop) d.drop = true;
    if (rng.next_double() < rates_.dup) d.dup = true;
    if (rng.next_double() < rates_.corrupt &&
        payload_size >= rates_.min_corrupt_size && payload_size > 0)
      d.corrupt = true;
    if (rng.next_double() < rates_.delay)
      d.delay_hold = std::max(d.delay_hold, rates_.delay_hold);
  }

  if (d.drop) {  // drop dominates: nothing else can happen to a lost message
    d.dup = d.corrupt = false;
    d.delay_hold = 0;
  }
  return d;
}

void FaultInjector::corrupt_payload(int src, int dst, uint64_t link_ordinal,
                                    std::span<uint8_t> payload) const {
  if (payload.empty()) return;
  SplitMix64 rng(key_stream(src, dst, link_ordinal, /*salt=*/2));
  const int n = std::max(1, rates_.corrupt_bytes);
  for (int i = 0; i < n; ++i) {
    const size_t pos = size_t(rng.next() % payload.size());
    payload[pos] ^= uint8_t(1u + rng.next_below(255));  // never a no-op flip
  }
}

}  // namespace pdw::net
