#include "sim/traffic_model.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/check.h"
#include "common/stats.h"

namespace pdw::sim {

namespace {

using proto::AdmissionController;
using proto::AdmissionVerdict;
using proto::DegradeLevel;
using proto::PriorityClass;
using proto::TenantSpec;

// Stable per-rank hash for spec derivation (independent of the arrival RNG
// so the catalog is a fixed property of the config).
uint64_t rank_hash(uint64_t seed, int rank, uint64_t salt) {
  return SplitMix64(seed ^ (uint64_t(rank) * 0x9E3779B97F4A7C15ULL) ^
                    (salt * 0xC2B2AE3D27D4EB4FULL))
      .next();
}

double rank_unit(uint64_t seed, int rank, uint64_t salt) {
  return double(rank_hash(seed, rank, salt) >> 11) * 0x1.0p-53;
}

// Declared-vs-measured cost ratio: real streams never cost exactly what
// they declare. Mean ~1.0, spread +-15%.
double measured_factor(uint64_t seed, int rank) {
  return 0.85 + 0.3 * rank_unit(seed, rank, /*salt=*/3);
}

struct Event {
  double t = 0;
  uint64_t seq = 0;  // tie-break: creation order (determinism)
  enum class Kind : uint8_t { kArrival, kDeparture } kind = Kind::kArrival;
  int stream = -1;  // departures only

  bool operator>(const Event& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
};

struct Live {
  int rank = -1;
  PriorityClass cls = PriorityClass::kBackground;
  double measured_cost = 0;  // at full rate, mb/s
  uint16_t fps = 0;
};

}  // namespace

proto::TenantSpec tenant_spec(const TrafficConfig& cfg, int rank) {
  TenantSpec s;
  // Geometry: SD / HD / FHD in macroblock units, weighted toward the middle.
  const double g = rank_unit(cfg.seed, rank, /*salt=*/1);
  if (g < 0.3) {
    s.width_mb = 45;  // 720x480
    s.height_mb = 30;
  } else if (g < 0.8) {
    s.width_mb = 80;  // 1280x720
    s.height_mb = 45;
  } else {
    s.width_mb = 120;  // 1920x1088
    s.height_mb = 68;
  }
  s.fps = rank_hash(cfg.seed, rank, /*salt=*/2) & 1 ? 30 : 24;
  const double c = rank_unit(cfg.seed, rank, /*salt=*/4);
  s.priority = c < cfg.premium_share ? PriorityClass::kPremium
               : c < cfg.premium_share + cfg.standard_share
                   ? PriorityClass::kStandard
                   : PriorityClass::kBackground;
  return s;
}

ClassStats TrafficReport::totals() const {
  ClassStats t;
  for (const ClassStats& c : cls) {
    t.offered += c.offered;
    t.accepted += c.accepted;
    t.renegotiated += c.renegotiated;
    t.rejected += c.rejected;
    t.pictures += c.pictures;
    t.shed += c.shed;
    t.deadline_checks += c.deadline_checks;
    t.deadline_misses += c.deadline_misses;
  }
  return t;
}

TrafficReport run_traffic(const TrafficConfig& cfg) {
  PDW_CHECK_GT(cfg.capacity.mb_per_s, 0.0);
  PDW_CHECK_GT(cfg.tenants, 0);

  AdmissionController::Config acfg;
  acfg.capacity = cfg.capacity;
  acfg.b_share = cfg.b_share;
  acfg.p_share = cfg.p_share;
  AdmissionController adm(acfg);

  // Zipf CDF over ranks, and the population's Zipf-weighted mean declared
  // cost (sets the arrival rate that realizes cfg.overload).
  std::vector<double> cdf(size_t(cfg.tenants));
  double mean_cost = 0, wsum = 0;
  for (int r = 0; r < cfg.tenants; ++r) {
    const double w = 1.0 / std::pow(double(r + 1), cfg.zipf_s);
    wsum += w;
    cdf[size_t(r)] = wsum;
    mean_cost += w * proto::tenant_cost(tenant_spec(cfg, r));
  }
  mean_cost /= wsum;
  for (double& c : cdf) c /= wsum;
  const double arrival_rate =
      cfg.overload * cfg.capacity.mb_per_s / (mean_cost * cfg.mean_hold_s);

  SplitMix64 rng(cfg.seed);
  const auto exp_draw = [&](double mean) {
    return -std::log(1.0 - rng.next_double()) * mean;
  };
  const auto zipf_rank = [&] {
    const double u = rng.next_double();
    return int(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
  uint64_t seq = 0;
  q.push(Event{exp_draw(1.0 / arrival_rate), seq++, Event::Kind::kArrival, -1});

  std::vector<Live> live(256);
  std::vector<int> free_ids(256);
  for (int i = 0; i < 256; ++i) free_ids[size_t(i)] = 255 - i;  // pop() = 0

  TrafficReport rep;
  double now = 0, util_integral = 0;
  double measured_load = 0;  // sum of measured cost x ladder multiplier

  const auto mult = [&](DegradeLevel l) {
    switch (l) {
      case DegradeLevel::kNone: return 1.0;
      case DegradeLevel::kSkipB: return 1.0 - cfg.b_share;
      case DegradeLevel::kSkipP: return 1.0 - cfg.b_share - cfg.p_share;
      case DegradeLevel::kFreeze: return 0.0;
    }
    return 1.0;
  };

  const auto recompute_measured = [&] {
    measured_load = 0;
    for (int id = 0; id < 256; ++id)
      if (live[size_t(id)].rank >= 0)
        measured_load += live[size_t(id)].measured_cost *
                         mult(adm.level(uint8_t(id)));
  };

  // Feed the ladder the measured signal until it stops reacting (each call
  // moves at most one step). Reverts armed here apply at the next closed
  // GOP; the model treats the per-event rebalance point as one.
  const auto rebalance = [&] {
    for (int guard = 0; guard < 1024; ++guard) {
      const size_t before = adm.log().size();
      adm.on_pressure(measured_load / cfg.capacity.mb_per_s);
      if (adm.log().size() == before) break;
      const auto& a = adm.log().back();
      if (a.kind == AdmissionController::Action::Kind::kDegrade) ++rep.degrades;
      recompute_measured();
    }
    // Apply armed reverts (closed-GOP point): mirror what should_shed() does
    // per picture, so the measured load tracks the applied level.
    for (int id = 0; id < 256; ++id) {
      const Live& lv = live[size_t(id)];
      if (lv.rank < 0) continue;
      const auto* t = adm.tenant(uint8_t(id));
      if (t && t->target < t->level) {
        adm.should_shed(uint8_t(id), mpeg2::PicType::I, /*closed_gop=*/true);
        ++rep.reverts;
      }
    }
    recompute_measured();
  };

  // Integrate the interval [now, t): deadline checks at each tenant's fps,
  // misses when measured load exceeds raw capacity, absorbed lowest class
  // first (the classes the ladder already shed are cheapest to blame).
  const auto integrate = [&](double t) {
    const double dt = t - now;
    if (dt <= 0) return;
    const double u = measured_load / cfg.capacity.mb_per_s;
    util_integral += u * dt;
    rep.peak_measured_utilization = std::max(rep.peak_measured_utilization, u);

    double class_load[3] = {0, 0, 0};
    double class_checks[3] = {0, 0, 0};
    for (int id = 0; id < 256; ++id) {
      const Live& lv = live[size_t(id)];
      if (lv.rank < 0) continue;
      const int c = int(lv.cls);
      const double m = mult(adm.level(uint8_t(id)));
      const double slots = double(lv.fps) * dt;
      rep.cls[c].pictures += slots;
      rep.cls[c].shed += slots * (1.0 - m);
      rep.cls[c].deadline_checks += slots * m;
      class_checks[c] += slots * m;
      class_load[c] += lv.measured_cost * m;
    }
    double overflow = std::max(0.0, measured_load - cfg.capacity.mb_per_s);
    for (int c = 0; c < 3 && overflow > 0; ++c) {  // lowest class first
      if (class_load[c] <= 0) continue;
      const double frac = std::min(1.0, overflow / class_load[c]);
      rep.cls[c].deadline_misses += class_checks[c] * frac;
      overflow -= std::min(overflow, class_load[c]);
    }
  };

  while (!q.empty()) {
    const Event ev = q.top();
    q.pop();
    if (ev.t >= cfg.sim_seconds) {
      integrate(cfg.sim_seconds);
      now = cfg.sim_seconds;
      break;
    }
    integrate(ev.t);
    now = ev.t;

    if (ev.kind == Event::Kind::kArrival) {
      ++rep.arrivals;
      q.push(Event{now + exp_draw(1.0 / arrival_rate), seq++,
                   Event::Kind::kArrival, -1});
      const int rank = zipf_rank();
      const TenantSpec spec = tenant_spec(cfg, rank);
      const int c = int(spec.priority);
      ++rep.cls[c].offered;
      if (free_ids.empty()) {
        ++rep.cls[c].rejected;  // 256 live sessions: the id space is full
        continue;
      }
      const int id = free_ids.back();
      const AdmissionController::Reply r = adm.offer(uint8_t(id), spec);
      switch (r.verdict) {
        case AdmissionVerdict::kAccept: ++rep.cls[c].accepted; break;
        case AdmissionVerdict::kRenegotiate: ++rep.cls[c].renegotiated; break;
        case AdmissionVerdict::kReject: ++rep.cls[c].rejected; break;
      }
      if (r.verdict != AdmissionVerdict::kReject) {
        free_ids.pop_back();
        Live& lv = live[size_t(id)];
        lv.rank = rank;
        lv.cls = spec.priority;
        lv.fps = spec.fps;
        lv.measured_cost =
            proto::tenant_cost(spec) * measured_factor(cfg.seed, rank);
        q.push(Event{now + exp_draw(cfg.mean_hold_s), seq++,
                     Event::Kind::kDeparture, id});
      }
      recompute_measured();
      rebalance();
    } else {
      ++rep.departures;
      adm.release(uint8_t(ev.stream));
      live[size_t(ev.stream)].rank = -1;
      free_ids.push_back(ev.stream);
      recompute_measured();
      rebalance();
    }
  }

  // Drain: every live session departs at the horizon.
  for (int id = 0; id < 256; ++id) {
    if (live[size_t(id)].rank < 0) continue;
    adm.release(uint8_t(id));
    live[size_t(id)].rank = -1;
    ++rep.departures;
  }

  rep.mean_measured_utilization =
      cfg.sim_seconds > 0 ? util_integral / cfg.sim_seconds : 0.0;

  const ClassStats tot = rep.totals();
  rep.accounting_ok =
      tot.offered == tot.accepted + tot.renegotiated + tot.rejected &&
      rep.departures == tot.accepted + tot.renegotiated &&
      adm.committed_load() < 1e-6 * cfg.capacity.mb_per_s + 1e-9;
  return rep;
}

}  // namespace pdw::sim
