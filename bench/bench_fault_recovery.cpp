// Fault injection and recovery — beyond the paper.
//
// The paper assumes a perfectly reliable Myrinet (§3); this bench measures
// what the hardened runtime adds on an unreliable one. Every number comes
// from the real threaded wall (ClusterPipeline: ReliableEndpoint transport,
// RootNode health monitor and recovery), not from a model:
//   (a) drop-rate sweep: throughput cost of retransmission under increasing
//       per-transmission loss;
//   (b) crash-recovery sweep: tile 3's decoder node dies mid-stream, under
//       both recovery policies (tile adoption vs degraded mode) across
//       health-monitor timeouts. A timeout at which a fault-free run already
//       declares a death is reported and left out of the sweep.
// Each leg runs kReps times; the tables print medians (fps with its
// interquartile range) against the fault-free run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/text_table.h"
#include "core/pipeline.h"
#include "net/fault.h"

using namespace pdw;

namespace {

constexpr int kM = 2, kN = 2, kK = 2;
constexpr int kReps = 5;
constexpr int kCrashTile = 3;
constexpr double kHeartbeatIntervalS = 0.01;

using Clock = std::chrono::steady_clock;

// One run of the wall under one fault schedule.
struct Run {
  double fps = 0;
  uint64_t retransmits = 0;
  uint64_t abandoned = 0;
  uint64_t degraded = 0;
  bool died = false;      // the root declared a death
  double detect_ms = 0;   // dead tile's last emission -> declared death
  double resync_ms = 0;   // declared death -> adopter decoded the resync pic
  int resync_pic = -1;    // adopted from this picture on (-1: not adopted)
};

// Runs the wall and CHECKs its display stream: no tile emits twice into a
// display slot, every tile no death names emits into every slot, and an
// adopted tile emits into every slot from the resync picture on.
Run run_wall(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
             core::FtOptions ft) {
  core::ClusterPipeline pipeline(geo, kK, es, ft);
  const int tiles = geo.tiles();
  std::vector<std::vector<int>> emitted(static_cast<size_t>(tiles));
  std::vector<std::vector<Clock::time_point>> exact_at(
      static_cast<size_t>(tiles));
  const auto stats = pipeline.run(
      [&](int tile, const mpeg2::TileFrame&, const core::TileDisplayInfo& in) {
        std::vector<int>& slots = emitted[size_t(tile)];
        if (int(slots.size()) <= in.display_index)
          slots.resize(size_t(in.display_index) + 1, 0);
        ++slots[size_t(in.display_index)];
        if (!in.degraded) exact_at[size_t(tile)].push_back(Clock::now());
      });
  const Clock::time_point end = Clock::now();
  // The wall's clock (RecoveryEvent times) started wall_seconds before the
  // run returned.
  const Clock::time_point start =
      end - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(stats.wall_seconds));

  Run run;
  run.fps = stats.fps;
  run.retransmits = stats.ft.transport.retransmits;
  run.abandoned = stats.ft.transport.abandoned;
  run.degraded = stats.ft.degraded_frames;
  PDW_CHECK_LE(stats.ft.recoveries.size(), size_t(1));

  std::vector<int> first_required(size_t(tiles), 0);
  if (!stats.ft.recoveries.empty()) {
    const core::RecoveryEvent& rec = stats.ft.recoveries[0];
    run.died = true;
    const auto detect =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(rec.detect_time_s));
    Clock::time_point last = start;
    for (const Clock::time_point t : exact_at[size_t(rec.dead_tile)])
      if (t < detect) last = std::max(last, t);
    run.detect_ms =
        std::chrono::duration<double, std::milli>(detect - last).count();
    if (rec.adopter_tile >= 0) {
      PDW_CHECK_GT(rec.resync_time_s, rec.detect_time_s);
      run.resync_ms = (rec.resync_time_s - rec.detect_time_s) * 1e3;
      run.resync_pic = int(rec.resync_pic);
      first_required[size_t(rec.dead_tile)] = int(rec.resync_pic);
    } else {
      first_required[size_t(rec.dead_tile)] = stats.pictures;
    }
  }
  for (int t = 0; t < tiles; ++t) {
    std::vector<int>& slots = emitted[size_t(t)];
    slots.resize(size_t(stats.pictures), 0);
    PDW_CHECK_EQ(int(slots.size()), stats.pictures);
    for (int s = 0; s < stats.pictures; ++s) {
      PDW_CHECK_LE(slots[size_t(s)], 1);
      if (s >= first_required[size_t(t)]) PDW_CHECK_EQ(slots[size_t(s)], 1);
    }
  }
  return run;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interquartile range of `v` (linear interpolation between order statistics).
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.75)};
}

// kReps runs of one schedule, reduced to medians.
struct Leg {
  double fps = 0, fps_q1 = 0, fps_q3 = 0;
  double retransmits = 0, abandoned = 0, degraded = 0;
  double abandoned_max = 0;
  double detect_ms = 0, resync_ms = 0, resync_pic = 0;
  int deaths = 0;  // runs in which the root declared a death
};

Leg run_leg(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
            const core::FtOptions& ft) {
  std::vector<double> fps, rtx, ab, deg, det, rsy, pic;
  Leg leg;
  for (int rep = 0; rep < kReps; ++rep) {
    const Run r = run_wall(es, geo, ft);
    fps.push_back(r.fps);
    rtx.push_back(double(r.retransmits));
    ab.push_back(double(r.abandoned));
    deg.push_back(double(r.degraded));
    det.push_back(r.detect_ms);
    rsy.push_back(r.resync_ms);
    pic.push_back(double(r.resync_pic));
    leg.deaths += r.died ? 1 : 0;
  }
  leg.fps = median(fps);
  std::tie(leg.fps_q1, leg.fps_q3) = quartiles(fps);
  leg.retransmits = median(rtx);
  leg.abandoned = median(ab);
  leg.abandoned_max = *std::max_element(ab.begin(), ab.end());
  leg.degraded = median(deg);
  leg.detect_ms = median(det);
  leg.resync_ms = median(rsy);
  leg.resync_pic = median(pic);
  return leg;
}

std::string fps_cell(const Leg& leg) {
  return format("%.1f [%.1f, %.1f]", leg.fps, leg.fps_q1, leg.fps_q3);
}

void run_drop_sweep(const std::vector<uint8_t>& es,
                    const wall::TileGeometry& geo) {
  std::printf("\n--- (a) Drop-rate sweep (threaded wall, 1-%d-(%d,%d)) ---\n",
              kK, kM, kN);
  TextTable table({"drop rate", "fps [IQR]", "fps vs clean", "retransmits",
                   "abandoned", "degraded frames"});
  double clean_fps = 0;
  for (const double rate : {0.0, 0.01, 0.05, 0.10, 0.20}) {
    const net::FaultInjector inj(42, net::FaultRates{.drop = rate});
    core::FtOptions ft;
    ft.injector = &inj;
    const Leg leg = run_leg(es, geo, ft);
    PDW_CHECK_EQ(leg.deaths, 0);
    // Up to 10% loss the transport must never give a send up.
    if (rate <= 0.10) PDW_CHECK_EQ(leg.abandoned_max, 0.0);
    if (rate == 0.0) clean_fps = leg.fps;
    table.add_row({format("%.2f", rate), fps_cell(leg),
                   format("%.2f", leg.fps / clean_fps),
                   format("%.0f", leg.retransmits),
                   format("%.0f", leg.abandoned),
                   format("%.0f", leg.degraded)});
    benchutil::json_metric(format("fault_drop%.0f_fps", rate * 100), leg.fps,
                           "fps");
  }
  table.print(stdout);
  std::printf("\nCSV:\n");
  table.print_csv(stdout);
}

void run_crash_sweep(const std::vector<uint8_t>& es,
                     const wall::TileGeometry& geo) {
  std::printf("\n--- (b) Crash recovery (threaded wall, tile %d's node dies "
              "mid-stream) ---\n",
              kCrashTile);
  // Deliveries to the dead node before it dies: about mid-stream, so a
  // closed-GOP resync point still lies ahead.
  net::FaultInjector crash;
  crash.add_event({.kind = net::FaultEvent::Kind::kCrash,
                   .dst = 1 + kK + kCrashTile,
                   .at_ordinal = 150});

  TextTable table({"policy", "hb timeout (ms)", "fps [IQR]", "fps vs clean",
                   "retransmits", "abandoned", "detect (ms)", "resync pic",
                   "resync (ms)", "degraded frames"});
  for (const double hb : {0.05, 0.10, 0.25, 0.50}) {
    core::FtOptions ft;
    ft.protocol.heartbeat_interval_s = kHeartbeatIntervalS;
    ft.protocol.heartbeat_timeout_s = hb;
    const Leg clean = run_leg(es, geo, ft);
    if (clean.deaths > 0) {
      std::printf("hb timeout %.0f ms: %d of %d fault-free runs declared a "
                  "death; timeout left out\n",
                  hb * 1e3, clean.deaths, kReps);
      continue;
    }
    for (const proto::RecoveryPolicy policy :
         {proto::RecoveryPolicy::kAdopt, proto::RecoveryPolicy::kDegrade}) {
      const bool adopt = policy == proto::RecoveryPolicy::kAdopt;
      ft.injector = &crash;
      ft.recovery = policy;
      const Leg leg = run_leg(es, geo, ft);
      ft.injector = nullptr;
      PDW_CHECK_EQ(leg.deaths, kReps);
      table.add_row({adopt ? "adopt" : "degrade", format("%.0f", hb * 1e3),
                     fps_cell(leg), format("%.2f", leg.fps / clean.fps),
                     format("%.0f", leg.retransmits),
                     format("%.0f", leg.abandoned),
                     format("%.1f", leg.detect_ms),
                     adopt ? format("%.0f", leg.resync_pic) : std::string("-"),
                     adopt ? format("%.1f", leg.resync_ms) : std::string("-"),
                     format("%.0f", leg.degraded)});
      const char* name = adopt ? "adopt" : "degrade";
      benchutil::json_metric(
          format("fault_%s_hb%.0fms_detect_ms", name, hb * 1e3),
          leg.detect_ms, "ms");
      benchutil::json_metric(
          format("fault_%s_hb%.0fms_fps_vs_clean", name, hb * 1e3),
          leg.fps / clean.fps, "ratio");
    }
  }
  table.print(stdout);
  std::printf("\n(detect: from tile %d's last exact emission to the root's "
              "declaration of its death. The node's last heartbeat can "
              "precede that emission by up to one heartbeat interval, so "
              "this can read up to that much below the timeout; the protocol "
              "bounds the declaration from below by the last heartbeat plus "
              "the timeout. resync: from the "
              "declaration to the adopter's first decode of the resync "
              "picture.)\n",
              kCrashTile);
  std::printf("\nCSV:\n");
  table.print_csv(stdout);
}

}  // namespace

int main() {
  benchutil::print_banner(
      "Fault Injection & Recovery — beyond the paper",
      "extends IPDPS'02 paper §3 (which assumes a reliable Myrinet)",
      "retransmission keeps the wall bit-exact at a modest throughput cost; "
      "after a node crash the wall recovers at the next closed GOP, with "
      "recovery latency dominated by the health-monitor timeout");

  const auto es = benchutil::stream(1);  // DVD-class 720x480
  const video::StreamSpec& spec = video::stream_by_id(1);
  wall::TileGeometry geo(spec.width, spec.height, kM, kN, benchutil::kOverlap);

  run_drop_sweep(es, geo);
  run_crash_sweep(es, geo);
  return 0;
}
