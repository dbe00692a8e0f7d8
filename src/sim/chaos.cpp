#include "sim/chaos.h"

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "mem/pool.h"
#include "sim/traffic_model.h"

namespace pdw::sim {

namespace {

// Overload leg: DES Zipf traffic through the ladder.
void run_overload_leg(const ChaosSchedule& sched, ChaosReport* rep) {
  TrafficConfig cfg;
  cfg.capacity.mb_per_s = sched.capacity_mb_s;
  cfg.overload = sched.overload;
  cfg.sim_seconds = sched.sim_seconds;
  cfg.seed = sched.seed;
  const TrafficReport tr = run_traffic(cfg);

  rep->overload_accounting_ok = tr.accounting_ok;
  rep->degrades = tr.degrades;
  const ClassStats& bg = tr.cls[int(proto::PriorityClass::kBackground)];
  const ClassStats& std_ = tr.cls[int(proto::PriorityClass::kStandard)];
  const ClassStats& prm = tr.cls[int(proto::PriorityClass::kPremium)];
  rep->premium_miss_rate = prm.miss_rate();
  rep->background_shed_rate = bg.shed_rate();
  rep->premium_miss_rate_ok =
      rep->premium_miss_rate < sched.premium_miss_budget;
  // Strict priority order: pain is monotone down the class ladder, for both
  // shedding and deadline misses.
  rep->overload_priority_order_ok =
      prm.shed_rate() <= std_.shed_rate() + 1e-9 &&
      std_.shed_rate() <= bg.shed_rate() + 1e-9 &&
      prm.miss_rate() <= std_.miss_rate() + 1e-9 &&
      std_.miss_rate() <= bg.miss_rate() + 1e-9;
}

// Fault leg: the threaded pipeline under seeded wire chaos.
void run_fault_leg(const ChaosSchedule& sched, ChaosReport* rep) {
  PDW_CHECK(sched.geo != nullptr);
  PDW_CHECK(!sched.es.empty());
  const net::FaultInjector injector(sched.seed, sched.rates);
  core::FtOptions ft;
  ft.injector = &injector;
  core::ClusterPipeline pipeline(*sched.geo, sched.k, sched.es, ft);
  std::map<int, uint64_t> emissions;  // per tile
  const core::ClusterStats stats =
      pipeline.run([&](int tile, const mpeg2::TileFrame&,
                       const core::TileDisplayInfo&) { ++emissions[tile]; });
  rep->fault_completed = true;  // run() returned: no deadlock
  rep->fault_pictures = stats.pictures;
  // One emission per display slot per tile: a skipped/concealed picture
  // still emits (frozen frame), a dropped message never loses a slot.
  rep->fault_display_invariant_ok = int(emissions.size()) == sched.geo->tiles();
  for (const auto& [tile, count] : emissions)
    if (count != uint64_t(stats.pictures))
      rep->fault_display_invariant_ok = false;
}

// Pool leg: budget-squeezed pool hammered concurrently. Allocation must
// degrade (heap fallbacks), never fail, and every byte must come back.
void run_pool_leg(const ChaosSchedule& sched, ChaosReport* rep) {
  mem::BufferPool pool(sched.pool_budget_bytes);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < sched.pool_threads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(sched.seed ^ uint64_t(t + 1));
      std::vector<mem::Bytes> held;
      for (int i = 0; i < sched.pool_allocs_per_thread; ++i) {
        const size_t n = 64 + rng.next_below(256 * 1024);
        mem::Bytes b = pool.alloc(n);
        if (b.size() != n) failed.store(true);
        held.push_back(std::move(b));
        if (held.size() > 8) held.erase(held.begin());  // churn
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const mem::PoolStats st = pool.stats();
  rep->pool_budget_fallbacks = st.budget_fallbacks;
  rep->pool_drained = !failed.load() && st.bytes_in_flight == 0;
}

// Shedding leg: admission-gated serial session with room for fewer tenants
// than attach, over the real stream.
void run_shed_leg(const ChaosSchedule& sched, ChaosReport* rep) {
  PDW_CHECK(sched.geo != nullptr);
  PDW_CHECK(!sched.es.empty());
  proto::TenantSpec spec;
  spec.width_mb = uint16_t(sched.geo->mb_width());
  spec.height_mb = uint16_t(sched.geo->mb_height());
  spec.fps = 24;

  proto::AdmissionController::Config acfg;
  acfg.capacity.mb_per_s =
      proto::tenant_cost(spec) * sched.shed_capacity_tenants;
  acfg.capacity.admit_headroom = 1.0;
  core::StreamSession session(*sched.geo, 2);
  session.enable_admission(acfg);
  spec.priority = proto::PriorityClass::kPremium;
  std::vector<int> attached;
  for (int i = 0; i < sched.shed_tenants; ++i) {
    // Later tenants are lower class, so the ladder has a strict order to
    // respect when the budget runs out.
    spec.priority = i == 0 ? proto::PriorityClass::kPremium
                    : i == 1 ? proto::PriorityClass::kStandard
                             : proto::PriorityClass::kBackground;
    const proto::AdmissionController::Reply r =
        session.attach_stream(i, sched.es, spec);
    if (r.verdict != proto::AdmissionVerdict::kReject) attached.push_back(i);
  }

  std::map<std::pair<int, int>, uint64_t> emissions;  // per (stream, tile)
  const core::StreamSession::Result result =
      session.run([&](int stream, int tile, const mpeg2::TileFrame&,
                      const core::TileDisplayInfo&) {
        ++emissions[{stream, tile}];
      });
  rep->shed_pictures = result.shed;
  // Every attached stream emits exactly one frame per slot per tile, shed
  // pictures included (frozen frames, never holes).
  rep->shed_display_invariant_ok = !attached.empty();
  for (int id : attached)
    for (int t = 0; t < sched.geo->tiles(); ++t)
      if (emissions[{id, t}] != result.stream_pictures[size_t(id)])
        rep->shed_display_invariant_ok = false;
}

}  // namespace

ChaosReport run_chaos(const ChaosSchedule& sched) {
  ChaosReport rep;
  run_overload_leg(sched, &rep);
  run_fault_leg(sched, &rep);
  run_pool_leg(sched, &rep);
  run_shed_leg(sched, &rep);
  return rep;
}

}  // namespace pdw::sim
