// Multi-tenant admission control and QoS degradation ladder.
//
// A tiled wall serving many independent streams has a fixed decode budget
// (macroblocks per second, measured — bench_table4_streams). Before this
// layer, attaching one stream too many degraded *every* tenant equally: the
// round-robin session just got slower, deadlines slid for premium and
// preview feeds alike. AdmissionController makes overload an explicit,
// typed protocol event instead:
//
//   * attach is gated: a tenant declares its cost up front (geometry, fps,
//     priority class — TenantSpec) and the controller answers
//     accept / renegotiate-at-degrade-level / reject (Reply) against the
//     measured wall capacity;
//   * under overload the controller walks admitted tenants down the
//     degradation ladder (skip-B -> skip-P -> freeze) in strict priority
//     order — the lowest class always degrades first, and a higher-priority
//     arrival may push lower classes down to make room;
//   * degrading is applied immediately (skipping pictures is always safe —
//     the shed path reuses the skip-broadcast machinery, so the display
//     invariant holds), but *reverting* is deferred to the next picture
//     that opens a closed GOP: an I picture with a GOP header references
//     nothing, so resuming there is bit-exact by construction.
//
// The controller is sans-io and deterministic: every decision is a pure
// function of the calls made on it, in order. It runs in-process, beside
// the streams it gates (core::StreamSession, the traffic model); no
// admission message crosses a node boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "mpeg2/types.h"

namespace pdw::obs {
class MetricsRegistry;
}

namespace pdw::proto {

// QoS class of a tenant's stream. Lower classes degrade and shed first; the
// admission controller never degrades class N while class N+1 still has
// headroom to give up.
enum class PriorityClass : uint8_t {
  kBackground = 0,  // best-effort (preview walls, transcode feeds)
  kStandard = 1,    // normal interactive viewing
  kPremium = 2,     // contractual QoS: protected until everything else is shed
};

// Degradation ladder, in the order overload applies it. Skipping B pictures
// is free of drift (nothing references a B picture); kSkipP decodes only I
// pictures (a P picture's references would be stale); kFreeze holds the last
// displayed frame. Reverting is only bit-exact at a closed-GOP I picture, so
// the controller *raises* a stream's level immediately but *lowers* it
// lazily, at the next picture whose span carries a GOP header.
enum class DegradeLevel : uint8_t {
  kNone = 0,
  kSkipB = 1,
  kSkipP = 2,
  kFreeze = 3,
};

enum class AdmissionVerdict : uint8_t {
  kAccept = 0,
  kReject = 1,       // no capacity at any degrade level
  kRenegotiate = 2,  // admitted, but only at the granted degrade level
};

// A tenant's declared stream cost — what it asks the wall to commit to.
struct TenantSpec {
  uint16_t width_mb = 0;   // picture geometry, in macroblocks
  uint16_t height_mb = 0;
  uint16_t fps = 0;
  PriorityClass priority = PriorityClass::kStandard;
};

// Declared decode cost in macroblocks/second — the unit wall capacity is
// measured in, so admission is a straight budget comparison.
inline double tenant_cost(const TenantSpec& s) {
  return double(s.width_mb) * double(s.height_mb) * double(s.fps);
}

// Measured serving capacity of the wall (derived from a calibration run or
// a DES cost model — never guessed inside proto).
struct WallCapacity {
  double mb_per_s = 0;
  // Fraction of capacity admission may commit. The headroom absorbs the lag
  // between an arrival and the next ladder rebalance.
  double admit_headroom = 0.95;
};

class AdmissionController {
 public:
  struct Config {
    WallCapacity capacity;
    // Declared picture-type mix, used to price the ladder: skipping B
    // pictures sheds `b_share` of the load, skipping P another `p_share`.
    // Default matches the IBBP test streams (gop 12, 2 B per anchor).
    double b_share = 0.5;
    double p_share = 0.3;
    // on_pressure() thresholds: degrade one step when the signal is at or
    // above `degrade_at`, arm one revert when at or below `revert_at`. The
    // dead band between them keeps the ladder from oscillating.
    double degrade_at = 1.0;
    double revert_at = 0.7;
  };

  // The answer to an offer. On kRenegotiate, `level` is the degrade level
  // the stream is granted at (the tenant may attach at that level or walk
  // away); on kAccept it is kNone; on kReject it is kFreeze (nothing would
  // be decoded anyway).
  struct Reply {
    AdmissionVerdict verdict = AdmissionVerdict::kReject;
    DegradeLevel level = DegradeLevel::kNone;

    friend bool operator==(const Reply&, const Reply&) = default;
  };

  // One entry of the decision log, in decision order. `level` is the
  // stream's degrade level *after* the action.
  struct Action {
    enum class Kind : uint8_t {
      kOffer,      // verdict answered to an offer()
      kRelease,    // stream departed, its budget returned
      kDegrade,    // ladder pushed the stream one level down (immediate)
      kArmRevert,  // ladder scheduled a one-level revert (awaits closed GOP)
      kRevert,     // armed revert applied at a closed-GOP I picture
    };
    Kind kind = Kind::kOffer;
    uint8_t stream = 0;
    AdmissionVerdict verdict = AdmissionVerdict::kAccept;  // kOffer only
    DegradeLevel level = DegradeLevel::kNone;

    friend bool operator==(const Action&, const Action&) = default;
  };

  // Per-tenant ledger entry (telemetry reads it; decisions come from the
  // methods).
  struct TenantState {
    TenantSpec spec;
    bool active = false;
    DegradeLevel level = DegradeLevel::kNone;   // currently applied
    DegradeLevel target = DegradeLevel::kNone;  // after pending reverts
    uint64_t pictures = 0;
    uint64_t shed = 0;
    uint64_t deadline_checks = 0;
    uint64_t deadline_misses = 0;
  };

  explicit AdmissionController(Config cfg);

  // Admit `stream` with the declared `spec` against the remaining budget.
  // Tries, in order: full rate; degrading strictly lower-priority tenants to
  // make room (each step is logged); renegotiating the requester at the
  // shallowest degrade level that fits. A live duplicate stream id is a
  // protocol error -> kReject.
  Reply offer(uint8_t stream, const TenantSpec& spec);

  // Stream departed; its budget returns to the pool (reverts for the
  // remaining tenants are armed by the next on_pressure() reading).
  void release(uint8_t stream);

  // Periodic backpressure reading (utilization, pool pressure — any signal
  // normalized so 1.0 means "at capacity"). Each call moves the ladder at
  // most one step, so the reaction rate is bounded by the polling rate.
  void on_pressure(double signal);

  // Per-picture gate, called by the session before stepping a stream:
  // applies an armed revert first if this picture opens a closed GOP, then
  // answers whether the picture must be shed at the stream's level.
  bool should_shed(uint8_t stream, mpeg2::PicType type, bool closed_gop);

  // Telemetry-only deadline bookkeeping; never feeds decisions (wall-clock
  // input would make decisions nondeterministic).
  void deadline_check(uint8_t stream, bool missed);

  bool admitted(uint8_t stream) const;
  DegradeLevel level(uint8_t stream) const;
  const TenantState* tenant(uint8_t stream) const;

  // Committed load (mb/s at current degrade levels) and its ratio to the
  // admissible budget.
  double committed_load() const { return committed_; }
  double utilization() const;

  const Config& config() const { return cfg_; }
  const std::vector<Action>& log() const { return log_; }

  // Mirror admission totals and per-tenant state into `reg` (labels:
  // {stream}). Null: telemetry off (the default — unit tests stay silent).
  void set_metrics(obs::MetricsRegistry* reg) { metrics_ = reg; }

 private:
  double multiplier(DegradeLevel l) const;
  // Committed load is priced at the *target* level (the steady state the
  // ledger is heading toward); an armed revert raises it before the level
  // actually lowers at the resync picture, so admission never double-sells
  // the in-between.
  double effective_cost(const TenantState& t) const {
    return tenant_cost(t.spec) * multiplier(t.target);
  }
  double budget() const {
    return cfg_.capacity.mb_per_s * cfg_.capacity.admit_headroom;
  }
  // Next tenant the ladder degrades / reverts, or -1. Degrade order: lowest
  // priority class, then least-degraded within the class (spread the pain),
  // then highest stream id (newest first). Revert order is the mirror
  // image. `below` limits degrade victims to classes strictly below it.
  int degrade_victim(int below_priority) const;
  int revert_candidate() const;
  void apply_degrade(int stream);
  void push(Action::Kind kind, uint8_t stream, AdmissionVerdict verdict,
            DegradeLevel level);
  void mirror_tenant(uint8_t stream);

  Config cfg_;
  std::vector<TenantState> tenants_;  // indexed by stream id (a byte)
  double committed_ = 0;
  uint64_t accepted_ = 0, rejected_ = 0, renegotiated_ = 0;
  std::vector<Action> log_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace pdw::proto
