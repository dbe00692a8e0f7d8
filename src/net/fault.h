// Deterministic fault injection for the GM-like fabric.
//
// The paper assumes a perfectly reliable Myrinet; a production wall cannot.
// This layer lets tests and benchmarks subject the fabric to message drops,
// delays (reordering), duplicates, payload corruption, node stalls and node
// crashes — all *deterministically*: every decision is a pure function of
// (seed, src, dst, per-link message ordinal), so a schedule replays
// identically regardless of thread interleaving.
//
// Two ways to describe a schedule, freely combined:
//   * FaultRates — seeded per-message probabilities (soak testing);
//   * FaultEvent — exact triggers ("crash node 5 at its 7th delivery").
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace pdw::net {

// CRC-32 (IEEE 802.3 polynomial, reflected). Used by the reliable transport
// to detect payload corruption end-to-end.
uint32_t crc32(std::span<const uint8_t> data);

// Per-message fault probabilities, decided independently per transmission
// (a retransmission is a new transmission with a new ordinal, so bounded
// rates < 1 cannot starve a retrying sender forever).
struct FaultRates {
  double drop = 0;     // message silently lost
  double dup = 0;      // message delivered twice
  double corrupt = 0;  // payload bytes flipped (CRC-detectable)
  double delay = 0;    // message held back and delivered late (reordering)
  int delay_hold = 2;          // deliveries to hold a delayed message back
  int corrupt_bytes = 4;       // bytes flipped per corruption
  size_t min_corrupt_size = 0; // only corrupt payloads at least this large
};

// An exact scheduled fault. Ordinals count per (src, dst) link for message
// faults, and per destination node (messages delivered to it) for
// kCrash / kStall, which makes crash points independent of who sent the
// trigger.
// Construct with designated initializers only ({.kind = ..., .dst = ...});
// positional initialization is not supported, so fields may be inserted or
// reordered here without silently shifting the meaning of call sites.
struct FaultEvent {
  enum class Kind { kDrop, kDuplicate, kCorrupt, kDelay, kCrash, kStall };
  Kind kind = Kind::kDrop;
  int src = -1;             // -1 = any sender (ignored by kCrash/kStall)
  int dst = -1;             // message destination / node to crash or stall
  uint64_t at_ordinal = 0;  // trigger ordinal (see above)
  int param = 0;            // kDelay: hold count; kStall: window length
};
// Designated initializers require an aggregate; keeping FaultEvent one is
// what lets every field carry its own default above.
static_assert(std::is_aggregate_v<FaultEvent>);

// The fate of one transmission.
struct FaultDecision {
  bool drop = false;
  bool dup = false;
  bool corrupt = false;
  int delay_hold = 0;      // > 0: hold until this many later deliveries
  bool crash_dst = false;  // kill the destination before delivery
};

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(uint64_t seed, FaultRates rates) : seed_(seed), rates_(rates) {}

  void add_event(const FaultEvent& ev) { events_.push_back(ev); }
  uint64_t seed() const { return seed_; }

  // Fate of the `link_ordinal`-th message ever sent src->dst, which would
  // be the `dst_deliveries`-th message delivered to dst. Pure function —
  // safe to call from any thread. Callers count link_ordinal per (src, dst).
  FaultDecision decide(int src, int dst, uint64_t link_ordinal,
                       uint64_t dst_deliveries, size_t payload_size) const;

  // Deterministically flip `rates.corrupt_bytes` bytes of `payload`, keyed
  // the same way as decide().
  void corrupt_payload(int src, int dst, uint64_t link_ordinal,
                       std::span<uint8_t> payload) const;

 private:
  uint64_t key_stream(int src, int dst, uint64_t ordinal, uint64_t salt) const;

  uint64_t seed_ = 0;
  FaultRates rates_;
  std::vector<FaultEvent> events_;
};

}  // namespace pdw::net
