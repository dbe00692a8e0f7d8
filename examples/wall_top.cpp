// wall_top: live "top"-style dashboard over the unified metrics registry.
//
// Synthesizes a short stream, runs the threaded 1-k-(m,n) cluster pipeline
// in a background thread, and — while the cluster is decoding — polls
// obs::MetricsRegistry::global().snapshot() every refresh interval and
// redraws a per-node table: pictures through each stage, live queue depths,
// exchange traffic, transport retransmits and heartbeats. This is exactly
// the live-observability path the bespoke stats structs could not provide:
// the registry is safe to snapshot mid-run, so the dashboard needs no
// cooperation from the pipeline. The full metrics report prints at the end.
//
// With --tenants the dashboard instead hosts an admission-gated multi-stream
// session sized to overload the wall (capacity for ~half the attached
// tenants), and the table becomes per-tenant QoS state straight from the
// registry: priority class, admitted/released state, the ladder's current
// degrade level, pictures shed, and the deadline-miss rate.
//
// With --remote the dashboard hosts the cluster telemetry Collector
// (obs/collector.h) instead of running anything itself: every wall_node
// process started with --telemetry-port streams its metric deltas, spans and
// clock probes here, the table renders the *merged* cross-process snapshot
// plus a per-process sideband health table (clock offset, min RTT, sideband
// loss), and at exit the collector writes one merged Perfetto trace of the
// whole multi-process wall.
//
// With --partitions the dashboard runs the adaptive per-GOP rebalancer on a
// hot-region stream and renders the live wall::PartitionTable state straight
// from the registry gauges: current epoch and the column/row cut lines.
//
// Usage:
//   wall_top [m] [n] [k] [frames] [refresh_ms]
//   wall_top --tenants [count] [refresh_ms]
//   wall_top --remote PORT [--expect N] [--duration S] [--trace FILE]
//            [--refresh MS]
//   wall_top --partitions [frames] [refresh_ms]
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/text_table.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "enc/encoder.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "video/catalog.h"
#include "video/generator.h"

using namespace pdw;

namespace {

int64_t gauge_value(const obs::MetricsSnapshot& snap, std::string_view family,
                    obs::Labels labels) {
  for (const obs::MetricValue& v : snap.values)
    if (v.kind == obs::MetricKind::kGauge && v.family == family &&
        v.labels == labels)
      return v.gauge;
  return 0;
}

void draw(const obs::MetricsSnapshot& snap, int k, int tiles, bool ansi,
          double elapsed_s) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  const uint64_t decoded =
      snap.counter_total(obs::family::kPicturesDecoded);
  std::printf("pdw wall_top — %.1fs — %llu tile-pictures decoded, "
              "%llu retransmits, %llu heartbeats\n\n",
              elapsed_s, (unsigned long long)decoded,
              (unsigned long long)snap.counter_total(obs::family::kRetransmits),
              (unsigned long long)
                  snap.counter_total(obs::family::kHeartbeatsSent));

  TextTable table({"node", "role", "pics", "queue", "sp KiB", "exch KiB s/r",
                   "acks", "retr"});
  const int nodes = 1 + k + tiles;
  for (int nid = 0; nid < nodes; ++nid) {
    const obs::Labels eng{nid, 0};   // engine counters
    const obs::Labels net{nid, -1};  // transport counters
    std::string role, pics, queue, sp, exch, acks;
    if (nid == 0) {
      role = "root";
      pics = format(
          "%llu",
          (unsigned long long)snap.counter_value(
              obs::family::kPicturesDispatched, eng));
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kGoAheadsSeen, eng));
    } else if (nid <= k) {
      role = "splitter";
      pics = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kPicturesSplit, eng));
      queue = format("%lld", (long long)gauge_value(
                                 snap, obs::family::kQueueDepth, eng));
      sp = format("%.1f", double(snap.counter_value(obs::family::kSpBytesSent,
                                                    eng)) /
                              1024.0);
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kAcksRecv, eng));
    } else {
      role = "decoder";
      pics = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kPicturesDecoded, eng));
      queue = format("%lld", (long long)gauge_value(
                                 snap, obs::family::kQueueDepth, eng));
      exch = format(
          "%.1f/%.1f",
          double(snap.counter_value(obs::family::kExchangeBytesSent, eng)) /
              1024.0,
          double(snap.counter_value(obs::family::kExchangeBytesRecv, eng)) /
              1024.0);
      acks = format("%llu", (unsigned long long)snap.counter_value(
                                obs::family::kAcksSent, eng));
    }
    const std::string retr =
        format("%llu", (unsigned long long)snap.counter_value(
                           obs::family::kRetransmits, net));
    table.add_row({format("%d", nid), role, pics, queue, sp, exch, acks,
                   retr});
  }
  table.print(stdout);

  // Buffer pools (process-wide: every node's wire bodies and picture planes
  // come from these). Hit rate below 100% after warm-up means the hot path
  // is malloc'ing; in-flight is the live pooled working set.
  const auto pool_row = [&](TextTable* t, const char* name, const char* hits_f,
                            const char* miss_f, const char* rec_f,
                            const char* flight_f) {
    const uint64_t hits = snap.counter_total(hits_f);
    const uint64_t misses = snap.counter_total(miss_f);
    const double rate =
        hits + misses ? 100.0 * double(hits) / double(hits + misses) : 0.0;
    t->add_row({name, format("%llu", (unsigned long long)hits),
                format("%llu", (unsigned long long)misses),
                format("%.1f%%", rate),
                format("%llu", (unsigned long long)snap.counter_total(rec_f)),
                format("%.1f", double(gauge_value(snap, flight_f, {})) /
                                   (1024.0 * 1024.0))});
  };
  TextTable pools({"pool", "hits", "misses", "hit rate", "recycles",
                   "in-flight MiB"});
  pool_row(&pools, "wire", obs::family::kPoolHits, obs::family::kPoolMisses,
           obs::family::kPoolRecycles, obs::family::kPoolBytesInFlight);
  pool_row(&pools, "surface", obs::family::kSurfacePoolHits,
           obs::family::kSurfacePoolMisses, obs::family::kSurfacePoolRecycles,
           obs::family::kSurfacePoolBytesInFlight);
  std::printf("\n");
  pools.print(stdout);
  std::fflush(stdout);
}

const char* kClassNames[3] = {"background", "standard", "premium"};
const char* kLevelNames[4] = {"none", "skip-B", "skip-P", "freeze"};

void draw_tenants(const obs::MetricsSnapshot& snap, bool ansi,
                  double elapsed_s) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  std::printf(
      "pdw wall_top — multi-tenant — %.1fs — admission: %llu accepted, "
      "%llu renegotiated, %llu rejected\n\n",
      elapsed_s,
      (unsigned long long)snap.counter_total(obs::family::kAdmissionAccepted),
      (unsigned long long)
          snap.counter_total(obs::family::kAdmissionRenegotiated),
      (unsigned long long)snap.counter_total(obs::family::kAdmissionRejected));

  TextTable table(
      {"tenant", "class", "state", "degrade", "shed pics", "miss %"});
  // One kTenantPriorityClass gauge exists per tenant the controller has
  // ever seen; everything else keys off its labels.
  for (const obs::MetricValue& v : snap.values) {
    if (v.kind != obs::MetricKind::kGauge ||
        v.family != obs::family::kTenantPriorityClass)
      continue;
    const obs::Labels& labels = v.labels;
    const int cls = int(v.gauge);
    const bool admitted =
        gauge_value(snap, obs::family::kTenantAdmitted, labels) != 0;
    const int level =
        int(gauge_value(snap, obs::family::kTenantDegradeLevel, labels));
    const uint64_t shed =
        snap.counter_value(obs::family::kTenantPicturesShed, labels);
    const uint64_t checks =
        snap.counter_value(obs::family::kTenantDeadlineChecks, labels);
    const uint64_t misses =
        snap.counter_value(obs::family::kTenantDeadlineMisses, labels);
    table.add_row(
        {format("%d", labels.stream),
         cls >= 0 && cls < 3 ? kClassNames[cls] : "?",
         admitted ? (level > 0 ? "degraded" : "admitted") : "released",
         level >= 0 && level < 4 ? kLevelNames[level] : "?",
         format("%llu", (unsigned long long)shed),
         checks ? format("%.2f", 100.0 * double(misses) / double(checks))
                : std::string("-")});
  }
  table.print(stdout);
  std::fflush(stdout);
}

int run_tenant_mode(int tenants, int refresh_ms) {
  const int width = 320, height = 240, frames = 48;
  enc::EncoderConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.target_bpp = 0.35;

  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < tenants; ++i) {
    const auto scene = video::make_scene(video::SceneKind::kMovingObjects,
                                         width, height, 100u + unsigned(i));
    enc::Mpeg2Encoder encoder(cfg);
    streams.push_back(encoder.encode(
        frames, [&](int f, mpeg2::Frame* fr) { scene->render(f, fr); }));
  }

  proto::TenantSpec spec;
  spec.width_mb = uint16_t((width + 15) / 16);
  spec.height_mb = uint16_t((height + 15) / 16);
  spec.fps = 24;

  wall::TileGeometry geo(width, height, 2, 2, /*overlap=*/40);
  core::StreamSession session(geo, /*k=*/2);
  proto::AdmissionController::Config acfg;
  // Room for roughly half the tenants at full rate: the ladder must engage.
  acfg.capacity.mb_per_s = 0.5 * tenants * proto::tenant_cost(spec);
  session.enable_admission(acfg);
  session.admission()->set_metrics(&obs::MetricsRegistry::global());

  for (int i = 0; i < tenants; ++i) {
    // Tenant 0 is premium, 1 standard, the rest background — so the shed
    // order on screen demonstrates the strict priority ladder.
    spec.priority = i == 0   ? proto::PriorityClass::kPremium
                    : i == 1 ? proto::PriorityClass::kStandard
                             : proto::PriorityClass::kBackground;
    const proto::StreamReply reply =
        session.attach_stream(i, streams[size_t(i)], spec);
    std::printf("tenant %d (%s): verdict %d, level %s\n", i,
                kClassNames[int(spec.priority)], int(reply.verdict),
                kLevelNames[int(reply.level)]);
  }

  std::atomic<bool> done{false};
  core::StreamSession::Result result;
  std::thread runner([&] {
    result = session.run(nullptr);
    done.store(true);
  });

  const bool ansi = isatty(fileno(stdout)) != 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  double elapsed = 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    draw_tenants(reg.snapshot(), ansi, elapsed);
  }
  runner.join();

  draw_tenants(reg.snapshot(), ansi, elapsed);
  std::printf(
      "\nrun finished: %d streams, %llu pictures (%llu shed), %.2f s, "
      "%.1f aggregate fps\n",
      result.streams, (unsigned long long)result.pictures,
      (unsigned long long)result.shed, result.wall_seconds,
      result.aggregate_fps);
  return 0;
}

// --remote: host the telemetry collector; the wall runs elsewhere (other
// processes, other machines) and streams itself here.
int run_remote_mode(int argc, char** argv) {
  uint16_t port = 0;
  int expect = 0;
  double duration_s = 120.0;
  int refresh_ms = 200;
  std::string trace_path;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (i == 2 && a[0] != '-') {
      port = uint16_t(std::atoi(a.c_str()));
    } else if (a == "--expect") {
      if (const char* v = next()) expect = std::atoi(v);
    } else if (a == "--duration") {
      if (const char* v = next()) duration_s = std::atof(v);
    } else if (a == "--trace") {
      if (const char* v = next()) trace_path = v;
    } else if (a == "--refresh") {
      if (const char* v = next()) refresh_ms = std::atoi(v);
    } else {
      std::fprintf(stderr, "wall_top --remote PORT [--expect N] "
                           "[--duration S] [--trace FILE] [--refresh MS]\n");
      return 2;
    }
  }
  obs::Collector collector(port);
  if (!collector.ok()) {
    std::fprintf(stderr, "wall_top: cannot bind collector port %u\n",
                 unsigned(port));
    return 1;
  }
  collector.start();
  std::printf("wall_top --remote: collecting on UDP port %u\n",
              unsigned(collector.endpoint().port));

  const bool ansi = isatty(fileno(stdout)) != 0;
  double elapsed = 0;
  bool complete = false;
  while (elapsed < duration_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    const int k = collector.k(), tiles = collector.tiles();
    if (k > 0 && tiles > 0)
      draw(collector.merged_metrics(), k, tiles, ansi, elapsed);
    else if (ansi)
      std::printf("\x1b[H\x1b[Jwall_top --remote — %.1fs — waiting for the "
                  "first Hello...\n",
                  elapsed);

    TextTable procs({"token", "pid", "nodes", "offset us", "min-rtt us",
                     "dgrams", "bytes", "gaps", "state"});
    for (const obs::Collector::ProcessInfo& p : collector.processes()) {
      std::string nodes;
      for (size_t i = 0; i < p.nodes.size(); ++i)
        nodes += format("%s%d", i ? "," : "", p.nodes[i]);
      procs.add_row(
          {format("%08llx", (unsigned long long)(p.token & 0xFFFFFFFFull)),
           format("%u", p.os_pid), nodes,
           p.offset_valid ? format("%.1f", double(p.offset_ns) / 1e3)
                          : std::string("-"),
           p.offset_valid ? format("%.1f", double(p.min_rtt_ns) / 1e3)
                          : std::string("-"),
           format("%llu", (unsigned long long)p.datagrams),
           format("%llu", (unsigned long long)p.bytes),
           format("%llu", (unsigned long long)p.seq_gaps),
           p.bye ? "bye" : "live"});
    }
    std::printf("\n");
    procs.print(stdout);
    std::fflush(stdout);

    const int seen = int(collector.nodes_seen().size());
    const bool enough =
        expect > 0 ? seen >= expect : collector.all_nodes_seen();
    if (enough && collector.all_bye() && !collector.processes().empty()) {
      complete = true;
      break;
    }
  }
  collector.stop();

  const int seen = int(collector.nodes_seen().size());
  std::printf("\ncollector: %d nodes seen, %zu processes, %llu datagrams "
              "(%llu bytes), %llu failed probe replies, %llu frames and %llu "
              "metric records over the caps, complete=%s\n",
              seen, collector.processes().size(),
              (unsigned long long)collector.datagrams_received(),
              (unsigned long long)collector.bytes_received(),
              (unsigned long long)collector.send_failures(),
              (unsigned long long)collector.dropped_frames(),
              (unsigned long long)collector.dropped_metrics(),
              complete ? "yes" : "no");
  if (!trace_path.empty()) {
    if (!collector.write_merged_trace(trace_path)) {
      std::fprintf(stderr, "wall_top: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("merged trace written to %s\n", trace_path.c_str());
  }
  return complete ? 0 : 1;
}

void draw_partitions(const obs::MetricsSnapshot& snap, int m, int n, int k,
                     int tiles, bool ansi, double elapsed_s) {
  if (ansi) std::printf("\x1b[H\x1b[J");
  const int64_t epoch =
      gauge_value(snap, obs::family::kPartitionEpoch, obs::Labels{-1, 0});
  std::printf("pdw wall_top — partitions — %.1fs — epoch %lld, %llu "
              "tile-pictures decoded\n\n",
              elapsed_s, (long long)epoch,
              (unsigned long long)
                  snap.counter_total(obs::family::kPicturesDecoded));
  TextTable cuts({"axis", "cut", "mb"});
  for (int i = 0; i < m - 1; ++i)
    cuts.add_row({"col", format("%d", i),
                  format("%lld", (long long)gauge_value(
                                     snap, obs::family::kPartitionColCutMb,
                                     obs::Labels{i, 0}))});
  for (int i = 0; i < n - 1; ++i)
    cuts.add_row({"row", format("%d", i),
                  format("%lld", (long long)gauge_value(
                                     snap, obs::family::kPartitionRowCutMb,
                                     obs::Labels{i, 0}))});
  cuts.print(stdout);
  std::printf("\n");
  draw(snap, k, tiles, /*ansi=*/false, elapsed_s);
}

// --partitions: adaptive rebalancing on a hot-region stream, with the live
// PartitionTable epoch and cut lines rendered from the registry gauges.
int run_partition_mode(int frames, int refresh_ms) {
  const int m = 4, n = 4, k = 2;
  const video::StreamSpec spec = video::skewed_stream_spec(0, 640, 480);
  const std::vector<uint8_t> es = video::load_stream(spec, frames);
  std::printf("stream: %s %dx%d, %d frames (hot region cx=%.2f cy=%.2f)\n",
              spec.name.c_str(), spec.width, spec.height, frames,
              double(spec.hot.cx), double(spec.hot.cy));

  wall::TileGeometry geo(spec.width, spec.height, m, n, /*overlap=*/40);
  core::FtOptions ft;
  ft.adaptive.enabled = true;
  ft.adaptive.gain_threshold = 0.02;
  core::ClusterPipeline pipeline(geo, k, es, ft);

  std::atomic<bool> done{false};
  core::ClusterStats stats;
  std::thread runner([&] {
    stats = pipeline.run(nullptr);
    done.store(true);
  });

  const bool ansi = isatty(fileno(stdout)) != 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  double elapsed = 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    draw_partitions(reg.snapshot(), m, n, k, geo.tiles(), ansi, elapsed);
  }
  runner.join();

  draw_partitions(reg.snapshot(), m, n, k, geo.tiles(), ansi, elapsed);
  std::printf("\nrun finished: %d pictures, %.2f s, %.1f fps, final epoch "
              "%lld\n",
              stats.pictures, stats.wall_seconds, stats.fps,
              (long long)gauge_value(reg.snapshot(),
                                     obs::family::kPartitionEpoch,
                                     obs::Labels{-1, 0}));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--remote") == 0)
    return run_remote_mode(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "--partitions") == 0) {
    const int frames = argc > 2 ? std::atoi(argv[2]) : 96;
    const int refresh_ms = argc > 3 ? std::atoi(argv[3]) : 200;
    return run_partition_mode(frames, refresh_ms);
  }
  if (argc > 1 && std::strcmp(argv[1], "--tenants") == 0) {
    const int tenants = argc > 2 ? std::atoi(argv[2]) : 4;
    const int refresh_ms = argc > 3 ? std::atoi(argv[3]) : 200;
    return run_tenant_mode(tenants, refresh_ms);
  }
  const int m = argc > 1 ? std::atoi(argv[1]) : 2;
  const int n = argc > 2 ? std::atoi(argv[2]) : 2;
  const int k = argc > 3 ? std::atoi(argv[3]) : 2;
  const int frames = argc > 4 ? std::atoi(argv[4]) : 96;
  const int refresh_ms = argc > 5 ? std::atoi(argv[5]) : 200;

  const int width = 640, height = 480;
  enc::EncoderConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.target_bpp = 0.35;
  const auto scene =
      video::make_scene(video::SceneKind::kMovingObjects, width, height, 7);
  enc::Mpeg2Encoder encoder(cfg);
  const std::vector<uint8_t> es = encoder.encode(
      frames, [&](int i, mpeg2::Frame* f) { scene->render(i, f); });
  std::printf("encoded %d frames (%zu bytes); 1-%d-(%d,%d) wall\n", frames,
              es.size(), k, m, n);

  wall::TileGeometry geo(width, height, m, n, /*overlap=*/40);
  core::ClusterPipeline pipeline(geo, k, es);

  std::atomic<bool> done{false};
  core::ClusterStats stats;
  std::thread runner([&] {
    stats = pipeline.run(nullptr);
    done.store(true);
  });

  const bool ansi = isatty(fileno(stdout)) != 0;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  double elapsed = 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
    elapsed += double(refresh_ms) / 1e3;
    draw(reg.snapshot(), k, geo.tiles(), ansi, elapsed);
  }
  runner.join();

  draw(reg.snapshot(), k, geo.tiles(), ansi, elapsed);
  std::printf("\nrun finished: %d pictures, %.2f s, %.1f fps\n\n",
              stats.pictures, stats.wall_seconds, stats.fps);
  obs::metrics_report(reg.snapshot(), stdout);
  return 0;
}
