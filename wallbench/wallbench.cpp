// wallbench: the per-workload process behind run.py. Each mode loads (or
// generates) the workload's seeded stream, drives the engines only through
// their public entry points — core::ClusterPipeline::run and
// core::run_socket_wall — and times every wall frame from the display
// callback on its own clock. It prints one JSON object as its last line.
//
//   wallbench gen    --workload W --seed S --cache DIR
//   wallbench verify --workload W --seed S --cache DIR
//   wallbench cold   --workload W --seed S --cache DIR
//   wallbench run    --workload W --seed S --cache DIR --seconds T
//   wallbench trace  --workload W --seed S --cache DIR --seconds T
//                    --trace-out PREFIX
//
// gen     encodes the stream into the cache (kept out of every metric);
// verify  decodes serially and checks one wall pass bit-exact against it;
// cold    times the first engine call of a fresh process (setup_s);
// run     times warm engine passes for T seconds (the end-to-end metrics);
// trace   the per-layer probe (spans to PREFIX_probe.json), then untraced
//         and traced passes in turn for T seconds (registry metrics, tracer
//         waits; the last traced pass to PREFIX_engine.json), then the DES.
//
// run and trace time the serial decoder between their engine passes
// (calibrate()), so a change in host speed shows up in the same process and
// next to the passes it slowed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/lockstep.h"
#include "core/pipeline.h"
#include "core/root_splitter.h"
#include "core/socket_wall.h"
#include "mem/pool.h"
#include "mpeg2/decoder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe.h"
#include "sim/cluster_sim.h"
#include "video/catalog.h"
#include "wall/assembler.h"
#include "wall_math.h"

using namespace pdw;

namespace {

struct Workload {
  const char* name;
  int stream_id;  // catalog spec the stream is generated from
  int frames;
  int m, n, k;    // the 1-k-(m,n) wall
  bool socket;    // run_socket_wall instead of ClusterPipeline
};

// Both walls decode the same stream, the smallest Orion one (orion1,
// 2048x1536), so the two workloads differ only in the transport. Smaller
// streams leave the socket wall bound by thread wake-ups, and its frame rate
// drops by a third for minutes whenever the host is busy; at 3840x2912 the
// wall is bound by memory bandwidth and its frame rate halves whenever
// another process streams through memory (wallbench/README.md).
constexpr Workload kWorkloads[] = {
    {"orion_threaded", 13, 60, 2, 1, 1, false},
    {"orion_socket", 13, 60, 2, 1, 1, true},
};

constexpr int kOverlap = 40;        // projector overlap, as the repo benches
constexpr double kGapPercentile = 90;
constexpr size_t kSamplesBeyond = 10;
constexpr int kTracePairs = 3;      // least (untraced, traced) pass pairs
constexpr int kCalibrationShare = 4;  // calibrate on 1/4 of the pictures
constexpr double kMaxStealShare = 0.02;  // a timed pass above it is dropped

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

video::StreamSpec spec_for(const Workload& w, uint64_t seed) {
  video::StreamSpec spec = video::stream_by_id(w.stream_id);
  spec.scene_seed = 0x3A11'0000'0000'0000ull ^ seed;  // never 0
  return spec;
}

// --- JSON output -------------------------------------------------------------

class Json {
 public:
  void num(const std::string& key, double v) {
    if (!std::isfinite(v))
      throw std::runtime_error("metric " + key + " is not finite");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    field(key, buf);
  }
  void list(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (double v : vs) {
      if (!std::isfinite(v))
        throw std::runtime_error("value of " + key + " is not finite");
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.6g", out.size() > 1 ? ", " : "",
                    v);
      out += buf;
    }
    field(key, out + "]");
  }
  void metric(const std::string& name, double v, const char* unit) {
    if (!std::isfinite(v))
      throw std::runtime_error("metric " + name + " is not finite");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}", v,
                  unit);
    metrics_ += (metrics_.empty() ? "" : ", ") + quote(name) + ": " + buf;
  }
  void print() const {
    std::string out = "{" + body_;
    if (!metrics_.empty())
      out += std::string(body_.empty() ? "" : ", ") + "\"metrics\": {" +
             metrics_ + "}";
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string quote(const std::string& s) { return "\"" + s + "\""; }
  void field(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + v;
  }
  std::string body_;
  std::string metrics_;
};

// --- Engine passes -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Pass {
  wallbench::FrameLedger::Summary summary;
  std::vector<double> completion;  // s since the engine call, display order
  double return_s = 0;             // when the engine call returned
  core::ClusterStats stats;
};

struct Wall {
  const Workload& w;
  std::vector<uint8_t> es;
  wall::TileGeometry geo;
  int frames;

  Wall(const Workload& wl, std::vector<uint8_t> stream,
       const video::StreamSpec& spec)
      : w(wl),
        es(std::move(stream)),
        geo(spec.width, spec.height, wl.m, wl.n, kOverlap),
        frames(core::RootSplitter(es).picture_count()) {}

  int nodes() const { return 1 + w.k + geo.tiles(); }

  // One engine call; `extra` runs after the frame is timestamped.
  Pass run(obs::MetricsRegistry* metrics,
           const core::TileDisplayFn& extra = nullptr) const {
    Pass p;
    wallbench::FrameLedger ledger(geo.tiles(), frames);
    const Clock::time_point t0 = Clock::now();
    auto since = [&] {
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const core::TileDisplayFn on_display =
        [&](int tile, const mpeg2::TileFrame& tf,
            const core::TileDisplayInfo& di) {
          ledger.emit(tile, di.display_index, di.degraded, since());
          if (extra) extra(tile, tf, di);
        };
    if (w.socket) {
      core::SocketWallOptions so;
      so.metrics = metrics;
      p.stats = core::run_socket_wall(geo, w.k, es, on_display, so);
    } else {
      core::FtOptions ft;
      ft.metrics = metrics;
      core::ClusterPipeline pipeline(geo, w.k, es, ft);
      p.stats = pipeline.run(on_display);
    }
    p.return_s = since();
    p.summary = ledger.summary();
    p.completion = ledger.completion_times();
    return p;
  }
};

Wall load_wall(const Workload& w, uint64_t seed) {
  const video::StreamSpec spec = spec_for(w, seed);
  std::vector<uint8_t> es = video::load_stream(spec, w.frames);
  PDW_CHECK(!es.empty());
  return Wall(w, std::move(es), spec);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// CPU time the hypervisor gave to other guests while this VM's vCPUs were
// ready to run: the `steal` column of /proc/stat, summed over all vCPUs, in
// seconds (0 where the kernel does not report it).
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? double(v[7]) / double(sysconf(_SC_CLK_TCK)) : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Host-speed calibration: the serial decoder, single-threaded, on the first
// quarter of the stream's pictures in decode order, as pictures per second.
// It is mpeg2.serial_fps.
double calibrate(const Wall& wall) {
  const core::RootSplitter root(wall.es);
  const int pictures =
      std::max(1, root.picture_count() / kCalibrationShare);
  int decoded = 0;
  const mpeg2::Mpeg2Decoder::FrameCallback count =
      [&](const mpeg2::Frame&, const mpeg2::DecodedPictureInfo&) {
        ++decoded;
      };
  mpeg2::Mpeg2Decoder serial;
  const auto t0 = Clock::now();
  for (int i = 0; i < pictures; ++i)
    serial.decode_picture_span(wall.es, root.span(i), count);
  serial.flush(count);
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  PDW_CHECK_EQ(decoded, pictures);
  return pictures / s;
}

// 64-bit digest of a frame's three planes (the serial reference is held as
// digests, so a large stream does not keep every frame in memory).
uint64_t digest(const mpeg2::Frame& f) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^
               (uint64_t(uint32_t(f.width())) << 32 | uint32_t(f.height()));
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 32;
  };
  for (int c = 0; c < 3; ++c) {
    const mpeg2::Plane& p = f.plane(c);
    for (int y = 0; y < p.height(); ++y) {
      const uint8_t* row = p.row(y);
      int x = 0;
      for (; x + 8 <= p.width(); x += 8) {
        uint64_t v;
        std::memcpy(&v, row + x, 8);
        mix(v);
      }
      for (; x < p.width(); ++x) mix(row[x]);
    }
  }
  return h;
}

// Histogram p50 over every label set of `family` in the snapshot, from the
// snapshot's (bucket lower bound, count) pairs.
double hist_p50(const obs::MetricsSnapshot& snap, const char* family) {
  std::map<uint64_t, uint64_t> buckets;
  uint64_t total = 0;
  for (const obs::MetricValue& v : snap.values) {
    if (v.family != family || v.kind != obs::MetricKind::kHistogram) continue;
    for (const auto& [lower, count] : v.buckets) {
      buckets[lower] += count;
      total += count;
    }
  }
  const uint64_t rank = (total + 1) / 2;
  uint64_t seen = 0;
  for (const auto& [lower, count] : buckets) {
    seen += count;
    if (seen >= rank && rank > 0) return double(lower);
  }
  return 0;
}

// --- Modes -------------------------------------------------------------------

int mode_gen(const Workload& w, uint64_t seed) {
  const auto t0 = Clock::now();
  const Wall wall = load_wall(w, seed);
  Json j;
  j.num("bytes", double(wall.es.size()));
  j.num("pictures", wall.frames);
  j.num("load_s", std::chrono::duration<double>(Clock::now() - t0).count());
  j.print();
  return 0;
}

int mode_verify(const Workload& w, uint64_t seed) {
  const Wall wall = load_wall(w, seed);
  const int width = wall.geo.width(), height = wall.geo.height();

  // Serial reference (untimed: host speed is calibrated where it is used).
  std::vector<uint64_t> want(size_t(wall.frames), 0);
  int serial_frames = 0;
  mpeg2::Mpeg2Decoder serial;
  serial.decode(wall.es, [&](const mpeg2::Frame& f,
                             const mpeg2::DecodedPictureInfo& info) {
    PDW_CHECK_LT(info.display_index, wall.frames);
    want[size_t(info.display_index)] =
        digest(wall::crop_frame(f, width, height));
    ++serial_frames;
  });
  PDW_CHECK_EQ(serial_frames, wall.frames);

  // One wall pass, assembled and compared frame by frame.
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  int compared = 0, mismatched = 0;
  const Pass p = wall.run(nullptr, [&](int tile, const mpeg2::TileFrame& tf,
                                       const core::TileDisplayInfo& di) {
    if (di.display_index < 0 || di.display_index >= wall.frames) return;
    Pending& slot = pending[di.display_index];
    if (!slot.assembler)
      slot.assembler = std::make_unique<wall::WallAssembler>(wall.geo);
    slot.assembler->add_tile(tile, tf, !di.degraded);
    if (++slot.tiles < wall.geo.tiles()) return;
    ++compared;
    if (!slot.assembler->coverage_complete() ||
        digest(wall::crop_frame(slot.assembler->frame(), width, height)) !=
            want[size_t(di.display_index)])
      ++mismatched;
    pending.erase(di.display_index);
  });

  // A frame fails once: ledger faults and pixel mismatches can coincide, so
  // count the larger of the two plus frames never compared.
  const int failed =
      std::max(p.summary.failed, mismatched + (wall.frames - compared));
  Json j;
  j.num("attempted", wall.frames);
  j.num("failed", failed);
  j.num("mismatched", mismatched);
  j.num("compared", compared);
  j.print();
  return 0;
}

int mode_cold(const Workload& w, uint64_t seed) {
  const Wall wall = load_wall(w, seed);
  const Pass p = wall.run(nullptr);
  PDW_CHECK(!p.completion.empty()) << " cold pass completed no frame";
  Json j;
  j.num("attempted", p.summary.attempted);
  j.num("failed", p.summary.failed);
  j.num("setup_s", p.completion.front());
  j.print();
  return 0;
}

int mode_run(const Workload& w, uint64_t seed, double seconds) {
  const Wall wall = load_wall(w, seed);
  int attempted = 0, failed = 0;
  auto check = [&](const Pass& p) {
    attempted += p.summary.attempted;
    failed += p.summary.failed;
  };
  check(wall.run(nullptr));  // warm-up: lazy tables, pools, first touch

  // A pass during which the hypervisor ran other guests on this VM's vCPUs
  // measures the host, not the code: the metrics come from the quiet passes
  // (wallbench::quiet_passes), and every pass is still checked and listed.
  struct Timed {
    wallbench::PassTiming timing;
    double teardown_s, cpu_s, steal_share;
  };
  const double cpus = double(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  // Half of the passes may be dropped; the rest must still hold the gaps.
  const size_t min_gaps =
      2 * wallbench::samples_needed(kGapPercentile, kSamplesBeyond);
  std::vector<Timed> timed;
  std::vector<double> serial{calibrate(wall)};
  size_t all_gaps = 0;
  const auto t0 = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - t0).count() < seconds ||
         all_gaps < min_gaps) {
    const double cpu0 = cpu_seconds(), steal0 = steal_seconds();
    const Pass p = wall.run(nullptr);
    const double cpu_s = cpu_seconds() - cpu0;
    const double steal_s = steal_seconds() - steal0;
    check(p);
    wallbench::PassTiming pt = wallbench::pass_timing(p.completion);
    all_gaps += pt.gaps_s.size();
    const double teardown_s = p.return_s - pt.last_s;
    timed.push_back({std::move(pt), teardown_s, cpu_s,
                     steal_s / (p.return_s * cpus)});
    serial.push_back(calibrate(wall));
  }

  std::vector<double> all_fps, steal_pct, steal_share;
  for (const Timed& t : timed) {
    all_fps.push_back(t.timing.fps);
    steal_share.push_back(t.steal_share);
    steal_pct.push_back(100 * t.steal_share);
  }
  std::vector<double> fps, ttff, teardown, gaps;
  int complete = 0;
  double cpu_s = 0;
  for (size_t i : wallbench::quiet_passes(steal_share, kMaxStealShare)) {
    const Timed& t = timed[i];
    fps.push_back(t.timing.fps);
    ttff.push_back(t.timing.ttff_s);
    teardown.push_back(t.teardown_s);
    gaps.insert(gaps.end(), t.timing.gaps_s.begin(), t.timing.gaps_s.end());
    complete += t.timing.frames;
    cpu_s += t.cpu_s;
  }

  Json j;
  j.num("attempted", attempted);
  j.num("failed", failed);
  j.num("passes", double(timed.size()));
  j.num("passes_kept", double(fps.size()));
  j.num("gap_samples", double(gaps.size()));
  j.num("gap_samples_beyond_p90",
        double(wallbench::samples_beyond(gaps.size(), kGapPercentile)));
  j.num("teardown_ms", wallbench::median(teardown) * 1e3);
  j.num("serial_fps", wallbench::median(serial));
  j.list("pass_wall_fps", all_fps);
  j.list("pass_steal_pct", steal_pct);
  j.list("pass_serial_fps", serial);
  j.metric("wall_fps", wallbench::median(fps), "fps");
  j.metric("frame_gap_p50_ms", wallbench::percentile(gaps, 50) * 1e3, "ms");
  j.metric("frame_gap_p90_ms",
           wallbench::percentile(gaps, kGapPercentile) * 1e3, "ms");
  j.metric("ttff_ms", wallbench::median(ttff) * 1e3, "ms");
  j.metric("cpu_ms_per_frame", cpu_s * 1e3 / complete, "ms");
  j.metric("peak_rss_mb", peak_rss_mb(), "MB");
  j.print();
  return 0;
}

int mode_trace(const Workload& w, uint64_t seed, double seconds,
               const std::string& out) {
  const Wall wall = load_wall(w, seed);
  const int tiles = wall.geo.tiles();

  obs::Tracer probe_tracer;
  probe_tracer.enable(size_t(1) << 16);
  const wallbench::ProbeResult pr =
      wallbench::run_probe(wall.es, wall.geo, wall.nodes(), &probe_tracer);
  probe_tracer.disable();
  PDW_CHECK(obs::write_chrome_trace(probe_tracer, out + "_probe.json",
                                    wallbench::probe_lane_name))
      << " could not write " << out << "_probe.json";

  int attempted = 0, failed = 0;
  auto check = [&](const Pass& p) {
    attempted += p.summary.attempted;
    failed += p.summary.failed;
  };
  check(wall.run(nullptr));  // warm-up

  // Untraced passes feed a registry of their own; traced passes run with the
  // obs::Tracer on, interleaved so host drift hits both alike.
  obs::MetricsRegistry untraced_reg, traced_reg;
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<double> fps_untraced, fps_traced, teardown, serial{calibrate(wall)};
  uint64_t wire_bytes = 0, wire_msgs = 0, transport_bytes = 0;
  uint64_t retransmits = 0, abandoned = 0;
  uint64_t pool_hits = 0, pool_misses = 0, surface_misses = 0;
  uint64_t halo_wait_ns = 0;
  int untraced_frames = 0;
  const auto t0 = Clock::now();
  int pairs = 0;
  for (; pairs < kTracePairs ||
         std::chrono::duration<double>(Clock::now() - t0).count() < seconds;
       ++pairs) {
    const mem::PoolStats b0 = mem::BufferPool::wire().stats();
    const mem::PoolStats s0 = mem::SurfacePool::global().stats();
    const Pass u = wall.run(&untraced_reg);
    const mem::PoolStats b1 = mem::BufferPool::wire().stats();
    const mem::PoolStats s1 = mem::SurfacePool::global().stats();
    check(u);
    const wallbench::PassTiming ut = wallbench::pass_timing(u.completion);
    fps_untraced.push_back(ut.fps);
    teardown.push_back(u.return_s - ut.last_s);
    untraced_frames += wall.frames;
    wire_bytes += u.stats.wire.traffic.total();
    for (const auto& [type, n] : u.stats.wire.counts) wire_msgs += n;
    transport_bytes += u.stats.traffic_matrix.total();
    retransmits += u.stats.ft.transport.retransmits;
    abandoned += u.stats.ft.transport.abandoned;
    pool_hits += b1.hits - b0.hits;
    pool_misses += b1.misses - b0.misses;
    surface_misses += s1.misses - s0.misses;

    tracer.enable(size_t(1) << 15);
    const Pass t = wall.run(&traced_reg);
    tracer.disable();
    check(t);
    fps_traced.push_back(wallbench::pass_timing(t.completion).fps);
    for (const auto& [key, agg] : tracer.aggregate())
      if (key.first == obs::span::kWaitHalo) halo_wait_ns += agg.total_ns;
    serial.push_back(calibrate(wall));
  }

  // The DES on the lockstep traces of the same wall.
  std::vector<core::PictureTrace> traces;
  obs::MetricsRegistry lockstep_reg;
  core::LockstepPipeline lockstep(wall.geo, w.k, wall.es, &lockstep_reg);
  lockstep.run(nullptr,
               [&](const core::PictureTrace& tr) { traces.push_back(tr); });
  sim::SimParams sp;
  sp.k = w.k;
  const sim::SimResult des = sim::simulate_cluster(traces, wall.geo, sp);

  const proto::Topology topo{w.k, tiles};
  auto node_name = [&](int pid) {
    if (pid == topo.root()) return std::string("root");
    for (int s = 0; s < w.k; ++s)
      if (pid == topo.splitter(s)) return "splitter " + std::to_string(s);
    for (int t = 0; t < tiles; ++t)
      if (pid == topo.decoder(t)) return "decoder tile " + std::to_string(t);
    return "node " + std::to_string(pid);
  };
  // The tracer still holds the last traced pass.
  PDW_CHECK(obs::write_chrome_trace(tracer, out + "_engine.json", node_name))
      << " could not write " << out << "_engine.json";

  const obs::MetricsSnapshot snap = untraced_reg.snapshot();
  const double frames = untraced_frames;
  const double fps_u = wallbench::median(fps_untraced);
  const double fps_t = wallbench::median(fps_traced);

  Json j;
  j.num("attempted", attempted);
  j.num("failed", failed);
  j.num("wall_fps_untraced", fps_u);
  j.list("pass_wall_fps", fps_untraced);
  j.list("pass_serial_fps", serial);
  j.metric("root.scan_us_per_pic", pr.root_scan_us_per_pic, "us");
  j.metric("split.ms_per_pic", pr.split_ms_per_pic, "ms");
  j.metric("split.engine_p50_ms",
           hist_p50(snap, obs::family::kSplitNs) / 1e6, "ms");
  j.metric("split.out_in_ratio", pr.split_out_in_ratio, "ratio");
  j.metric("split.exchange_pairs_per_pic", pr.split_exchange_pairs_per_pic,
           "count");
  j.metric("tile.decode_ms_per_pic", pr.tile_decode_ms_per_pic, "ms");
  j.metric("tile.decode_imbalance", pr.tile_decode_imbalance, "ratio");
  j.metric("tile.serve_ms_per_pic", pr.tile_serve_ms_per_pic, "ms");
  j.metric("tile.halo_mbs_per_pic", pr.tile_halo_mbs_per_pic, "count");
  j.metric("tile.halo_wait_ms_per_pic",
           double(halo_wait_ns) / 1e6 / (double(pairs) * wall.frames * tiles),
           "ms");
  j.metric("tile.engine_decode_p50_ms",
           hist_p50(snap, obs::family::kDecodeNs) / 1e6, "ms");
  j.metric("mpeg2.serial_fps", wallbench::median(serial), "fps");
  j.metric("wire.bytes_per_frame", double(wire_bytes) / frames, "B");
  j.metric("wire.msgs_per_frame", double(wire_msgs) / frames, "count");
  j.metric("wire.pack_us_per_pic", pr.wire_pack_us_per_pic, "us");
  j.metric("wire.decode_us_per_pic", pr.wire_decode_us_per_pic, "us");
  j.metric("flow.goahead_wait_p50_ms",
           hist_p50(snap, obs::family::kGoAheadWaitNs) / 1e6, "ms");
  j.metric("net.rendezvous_ms", pr.net_rendezvous_ms, "ms");
  j.metric("net.msg_us", pr.net_msg_us, "us");
  j.metric("net.datagrams_per_frame",
           double(snap.counter_total(obs::family::kSocketDatagramsTx)) / frames,
           "count");
  j.metric("net.rx_drops_per_frame",
           double(snap.counter_total(obs::family::kSocketRxDrops)) / frames,
           "count");
  j.metric("net.retransmits_per_frame", double(retransmits) / frames, "count");
  j.metric("net.abandoned_sends", double(abandoned) / pairs, "count");
  j.metric("net.goodput_ratio",
           double(wire_bytes) / double(std::max<uint64_t>(transport_bytes, 1)),
           "ratio");
  j.metric("net.rtt_p50_us", hist_p50(snap, obs::family::kRttNs) / 1e3, "us");
  j.metric("mem.pool_misses_per_frame", double(pool_misses) / frames, "count");
  j.metric("mem.pool_hit_rate",
           double(pool_hits) /
               double(std::max<uint64_t>(pool_hits + pool_misses, 1)),
           "ratio");
  j.metric("mem.surface_misses_per_frame", double(surface_misses) / frames,
           "count");
  j.metric("hosts.teardown_ms", wallbench::median(teardown) * 1e3, "ms");
  j.metric("obs.trace_overhead_pct", 100.0 * (fps_u - fps_t) / fps_u, "%");
  j.metric("sim.predicted_fps", des.fps, "fps");
  j.num("sim.signed_error_pct", 100.0 * (des.fps - fps_u) / fps_u);
  j.metric("sim.model_error_pct", 100.0 * std::abs(des.fps - fps_u) / fps_u,
           "%");
  j.print();
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench gen|verify|cold|run|trace "
               "--workload W --seed S --cache DIR [--seconds T] "
               "[--trace-out PREFIX]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage("expected --option value");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("workload") || !args.count("seed") || !args.count("cache"))
    usage("--workload, --seed and --cache are required");
  // The stream cache is the benchmark's own (video::load_stream reads it).
  setenv("PDW_CACHE_DIR", args["cache"].c_str(), 1);
  try {
    const Workload& w = workload_by_name(args["workload"]);
    const uint64_t seed = std::stoull(args["seed"]);
    if (mode == "gen") return mode_gen(w, seed);
    if (mode == "verify") return mode_verify(w, seed);
    if (mode == "cold") return mode_cold(w, seed);
    const double seconds =
        std::stod(args.count("seconds") ? args["seconds"] : "10");
    if (mode == "run") return mode_run(w, seed, seconds);
    if (mode == "trace") {
      if (!args.count("trace-out")) usage("trace needs --trace-out");
      return mode_trace(w, seed, seconds, args["trace-out"]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
  usage(("unknown mode " + mode).c_str());
}
