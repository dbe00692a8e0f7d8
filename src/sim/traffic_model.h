// Zipf multi-tenant traffic model: a discrete-event overload generator for
// the admission controller.
//
// The paper serves one ultra-high-resolution stream; a serving wall fronts a
// *catalog* — thousands of tenants whose popularity is heavy-tailed. This
// model replays that population against proto::AdmissionController without
// decoding a single macroblock: tenants arrive by a seeded Poisson process,
// pick their identity from a Zipf(s) rank distribution, declare a spec
// (geometry, fps, priority class) derived deterministically from their rank,
// hold a session for an exponential duration, and depart. Between events the
// model integrates per-class deadline accounting against the wall capacity.
//
// The twist that gives the ladder real work: a tenant's *measured* cost is
// its declared cost times a per-rank factor in [0.85, 1.15] — real streams
// never cost exactly what they declare. The admission ledger sees declared
// cost; the pressure signal fed to on_pressure() is the measured load. When
// measurement runs hot the ladder degrades lowest-class tenants first, and
// deadline misses (measured load above raw capacity) are absorbed by the
// classes already shedding — which is exactly the property the overload
// sweep asserts: premium tenants hold <1% misses at 2x offered load.
//
// Everything is a pure function of TrafficConfig (seed included): same
// config, same report, byte for byte — the chaos harness and CI depend on
// that.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/admission.h"

namespace pdw::sim {

struct TrafficConfig {
  proto::WallCapacity capacity;  // measured wall budget (mb/s)
  double overload = 1.0;  // offered load as a multiple of capacity.mb_per_s
  int tenants = 2000;     // catalog size (Zipf ranks)
  double zipf_s = 1.1;    // popularity exponent
  double sim_seconds = 120.0;
  double mean_hold_s = 10.0;  // exponential session duration
  uint64_t seed = 1;
  // Class mix over ranks (premium + standard <= 1; the rest is background).
  double premium_share = 0.1;
  double standard_share = 0.6;
  // Ladder pricing handed to the controller.
  double b_share = 0.5;
  double p_share = 0.3;
};

struct ClassStats {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t renegotiated = 0;
  uint64_t rejected = 0;
  double pictures = 0;         // picture-slots served over the run
  double shed = 0;             // slots shed by the ladder
  double deadline_checks = 0;  // one per non-shed picture slot
  double deadline_misses = 0;

  double miss_rate() const {
    return deadline_checks > 0 ? deadline_misses / deadline_checks : 0.0;
  }
  double shed_rate() const {
    return pictures > 0 ? shed / pictures : 0.0;
  }
};

struct TrafficReport {
  ClassStats cls[3];  // indexed by proto::PriorityClass
  uint64_t arrivals = 0;
  uint64_t departures = 0;
  uint64_t degrades = 0;
  uint64_t reverts = 0;
  double peak_measured_utilization = 0;
  double mean_measured_utilization = 0;  // time-weighted
  // Ledger invariants: every offer answered exactly once, every admitted
  // session released, committed load drained to ~0 at teardown.
  bool accounting_ok = false;

  ClassStats totals() const;
};

// Spec a rank-`r` tenant declares (deterministic; shared with tests).
proto::TenantSpec tenant_spec(const TrafficConfig& cfg, int rank);

TrafficReport run_traffic(const TrafficConfig& cfg);

}  // namespace pdw::sim
