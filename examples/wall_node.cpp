// wall_node: one OS process per wall node — the paper's actual deployment
// shape. Every process is launched with its node id, the shared wall
// parameters and the rendezvous address; node 0 (the root) additionally
// hosts the UDP rendezvous listener that hands every process the full
// node -> endpoint map. Each process then makes the one core::run_node call
// the in-process runner makes per node thread (core/hosts.h), over a
// WallContext and a SocketFabric of its own.
//
// The test stream is generated deterministically inside every process from
// the shared (width, height, scene, seed, frames) parameters — same binary,
// same encoder, same bytes — so no stream file has to be distributed.
//
// Each process writes a report file: its wire accounting (recorded at emit,
// so summing the per-process reports reconstructs the global accounting),
// its transport stats, and — for decoders — an FNV-1a digest of every
// displayed tile frame. A final `--check` invocation merges the reports and
// compares them against the lockstep reference engine: same message counts,
// same data-plane traffic matrix, bit-identical decoded tiles.
//
//   wall_node --node 3 --k 2 --m 2 --n 2 --rv-port 47313 --report /tmp/r3
//   wall_node --check --k 2 --m 2 --n 2 --reports /tmp/r0 /tmp/r1 ...
//
// Impairment (--loss/--dup/--delay/--impair-seed) builds a seeded
// FaultInjector that this process's SocketFabric applies to every datagram
// it receives. Each process impairs only what it receives, so pass the same
// flags to every node to impair the whole wall.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hosts.h"
#include "core/lockstep.h"
#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "net/fault.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "video/generator.h"
#include "wall/geometry.h"

namespace {

using pdw::core::TileDisplayInfo;
using pdw::core::WallContext;

// Process and stream fields. The wall's own settings (--hb-timeout, the
// impairment and the telemetry flags) parse into a core::SocketWallOptions.
struct Options {
  bool check = false;
  int node = -1;
  int k = 1, m = 2, n = 2, overlap = 0;
  int width = 192, height = 128, frames = 12;
  int scene = 0;        // video::SceneKind
  uint64_t seed = 3;    // scene generator seed
  uint16_t rv_port = 0;
  std::string report;
  std::vector<std::string> reports;
  double timeout_s = 30;
  double linger_s = 1.0;
  std::string flight_dir;   // non-empty: per-node flight recorder on
  // Chaos hook: raise SIGTERM after this many displayed tile-pictures
  // (decoders only; 0 = never). Deterministic "node killed mid-run" for the
  // obs-smoke flight-recorder leg.
  int die_after = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "wall_node --node N --k K --m M --n N [--overlap O]\n"
      "          [--width W --height H --frames F --scene S --seed X]\n"
      "          --rv-port P --report FILE\n"
      "          [--loss p --dup p --delay p --impair-seed X]\n"
      "          [--timeout s --linger s]\n"
      "          [--telemetry-port P --telemetry-interval s]\n"
      "          [--flight-dir DIR --hb-timeout s --die-after N]\n"
      "wall_node --check --k K --m M --n N [...stream args]\n"
      "          --reports FILE...\n"
      "Each node impairs the datagrams it receives: pass the same --loss,\n"
      "--dup, --delay and --impair-seed to every node.\n");
  return 2;
}

// Every process builds the same seeded schedule into `injector` and
// applies it to what it receives; decisions key on (sender, receiver), so
// the processes together impair every link. wall->injector points at it
// only when a rate is set.
bool parse(int argc, char** argv, Options* o,
           pdw::core::SocketWallOptions* wall,
           pdw::net::FaultInjector* injector) {
  pdw::net::FaultRates rates;
  uint64_t impair_seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (a == "--check") {
      o->check = true;
    } else if (a == "--reports") {
      while (i + 1 < argc && argv[i + 1][0] != '-')
        o->reports.push_back(argv[++i]);
    } else {
      const char* v = next();
      if (!v) return false;
      if (a == "--node") o->node = std::atoi(v);
      else if (a == "--k") o->k = std::atoi(v);
      else if (a == "--m") o->m = std::atoi(v);
      else if (a == "--n") o->n = std::atoi(v);
      else if (a == "--overlap") o->overlap = std::atoi(v);
      else if (a == "--width") o->width = std::atoi(v);
      else if (a == "--height") o->height = std::atoi(v);
      else if (a == "--frames") o->frames = std::atoi(v);
      else if (a == "--scene") o->scene = std::atoi(v);
      else if (a == "--seed") o->seed = uint64_t(std::atoll(v));
      else if (a == "--rv-port") o->rv_port = uint16_t(std::atoi(v));
      else if (a == "--report") o->report = v;
      else if (a == "--loss") rates.drop = std::atof(v);
      else if (a == "--dup") rates.dup = std::atof(v);
      else if (a == "--delay") rates.delay = std::atof(v);
      else if (a == "--impair-seed") impair_seed = uint64_t(std::atoll(v));
      else if (a == "--timeout") o->timeout_s = std::atof(v);
      else if (a == "--linger") o->linger_s = std::atof(v);
      else if (a == "--telemetry-port")
        wall->telemetry_port = uint16_t(std::atoi(v));
      else if (a == "--telemetry-interval")
        wall->telemetry_interval_s = std::atof(v);
      else if (a == "--flight-dir") o->flight_dir = v;
      else if (a == "--hb-timeout") {
        // 0 keeps the protocol default (effectively infinite).
        if (const double t = std::atof(v); t > 0)
          wall->protocol.heartbeat_timeout_s = t;
      } else if (a == "--die-after") o->die_after = std::atoi(v);
      else return false;
    }
  }
  *injector = pdw::net::FaultInjector(impair_seed, rates);
  if (rates.drop > 0 || rates.dup > 0 || rates.delay > 0)
    wall->injector = injector;
  return true;
}

std::vector<uint8_t> make_stream(const Options& o) {
  pdw::enc::EncoderConfig cfg;
  cfg.width = o.width;
  cfg.height = o.height;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  cfg.me_range = 15;
  const auto gen = pdw::video::make_scene(pdw::video::SceneKind(o.scene),
                                          o.width, o.height, o.seed);
  pdw::enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(
      o.frames, [&](int i, pdw::mpeg2::Frame* f) { gen->render(i, f); });
}

uint64_t fnv1a64(const uint8_t* p, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t digest_plane(const pdw::mpeg2::Plane& pl, uint64_t h) {
  for (int y = 0; y < pl.height(); ++y)
    h = fnv1a64(pl.row(y), size_t(pl.width()), h);
  return h;
}

uint64_t digest_tile(const pdw::mpeg2::TileFrame& tf) {
  uint64_t h = 1469598103934665603ull;
  h = digest_plane(tf.y(), h);
  h = digest_plane(tf.cb(), h);
  h = digest_plane(tf.cr(), h);
  return h;
}

// (tile, display_index) -> digest, the unit of the bit-exactness gate.
using DigestMap = std::map<std::pair<int, int>, uint64_t>;

void write_report(const std::string& path, int node, int nodes,
                  const WallContext& ctx, const pdw::net::ReliableStats& rs,
                  const DigestMap& digests) {
  std::ofstream f(path, std::ios::trunc);
  f << "pdw-wallnode-report 1\n";
  f << "node " << node << " nodes " << nodes << "\n";
  f << "stats " << rs.sent << " " << rs.retransmits << " " << rs.abandoned
    << " " << rs.delivered << " " << rs.rtt_samples << "\n";
  f << "degraded " << ctx.degraded.load() << "\n";
  for (const auto& [type, count] : ctx.acct.counts)
    f << "count " << int(type) << " " << count << "\n";
  for (int s = 0; s < nodes; ++s)
    for (int d = 0; d < nodes; ++d)
      if (const uint64_t b = ctx.acct.traffic.at(s, d))
        f << "traffic " << s << " " << d << " " << b << "\n";
  for (const auto& [key, h] : digests)
    f << "digest " << key.first << " " << key.second << " " << h << "\n";
  f << "end\n";
}

struct Merged {
  pdw::proto::WireAccounting acct;
  pdw::net::ReliableStats stats;
  DigestMap digests;
  uint64_t degraded = 0;
  bool ok = true;
};

Merged merge_reports(const std::vector<std::string>& paths, int nodes) {
  Merged mg;
  mg.acct.reset(nodes);
  for (const std::string& path : paths) {
    std::ifstream f(path);
    if (!f) {
      std::fprintf(stderr, "check: cannot read report %s\n", path.c_str());
      mg.ok = false;
      continue;
    }
    std::string line;
    bool ended = false;
    while (std::getline(f, line)) {
      std::istringstream is(line);
      std::string tag;
      is >> tag;
      if (tag == "stats") {
        pdw::net::ReliableStats rs;
        is >> rs.sent >> rs.retransmits >> rs.abandoned >> rs.delivered >>
            rs.rtt_samples;
        mg.stats.sent += rs.sent;
        mg.stats.retransmits += rs.retransmits;
        mg.stats.abandoned += rs.abandoned;
        mg.stats.delivered += rs.delivered;
        mg.stats.rtt_samples += rs.rtt_samples;
      } else if (tag == "degraded") {
        uint64_t d = 0;
        is >> d;
        mg.degraded += d;
      } else if (tag == "count") {
        int type = 0;
        uint64_t c = 0;
        is >> type >> c;
        mg.acct.counts[pdw::proto::MsgType(type)] += c;
      } else if (tag == "traffic") {
        int s = 0, d = 0;
        uint64_t b = 0;
        is >> s >> d >> b;
        mg.acct.traffic.add(s, d, b);
      } else if (tag == "digest") {
        int tile = 0, display = 0;
        uint64_t h = 0;
        is >> tile >> display >> h;
        auto [it, inserted] = mg.digests.emplace(
            std::make_pair(tile, display), h);
        if (!inserted && it->second != h) {
          std::fprintf(stderr,
                       "check: conflicting digests for tile %d display %d\n",
                       tile, display);
          mg.ok = false;
        }
      } else if (tag == "end") {
        ended = true;
      }
    }
    if (!ended) {
      std::fprintf(stderr, "check: truncated report %s\n", path.c_str());
      mg.ok = false;
    }
  }
  return mg;
}

// Merge the per-process reports and compare against the lockstep reference:
// identical protocol message counts, identical data-plane traffic matrix
// (recorded at emit in both engines, so retransmissions don't perturb it),
// and bit-identical decoded tile pixels.
int run_check(const Options& o) {
  const pdw::wall::TileGeometry geo(o.width, o.height, o.m, o.n, o.overlap);
  const pdw::proto::Topology topo{o.k, geo.tiles()};
  const int nodes = topo.nodes();
  if (int(o.reports.size()) != nodes) {
    std::fprintf(stderr, "check: expected %d reports, got %zu\n", nodes,
                 o.reports.size());
    return 1;
  }
  Merged mg = merge_reports(o.reports, nodes);

  const std::vector<uint8_t> es = make_stream(o);
  pdw::core::LockstepPipeline reference(geo, o.k, es);
  DigestMap expected;
  reference.run(
      [&](int tile, const pdw::mpeg2::TileFrame& tf,
          const TileDisplayInfo& info) {
        expected[{tile, info.display_index}] = digest_tile(tf);
      },
      nullptr);
  const pdw::proto::WireAccounting& ref = reference.accounting();

  bool ok = mg.ok;
  for (const auto& [type, count] : ref.counts) {
    const auto it = mg.acct.counts.find(type);
    const uint64_t got = it == mg.acct.counts.end() ? 0 : it->second;
    if (got != count) {
      std::fprintf(stderr, "check: msg type %d count %llu != expected %llu\n",
                   int(type), (unsigned long long)got,
                   (unsigned long long)count);
      ok = false;
    }
  }
  if (mg.acct.counts.size() != ref.counts.size()) {
    std::fprintf(stderr, "check: extra message types in merged accounting\n");
    ok = false;
  }
  for (int s = 0; s < nodes; ++s)
    for (int d = 0; d < nodes; ++d)
      if (mg.acct.traffic.at(s, d) != ref.traffic.at(s, d)) {
        std::fprintf(stderr,
                     "check: traffic[%d][%d] = %llu != expected %llu\n", s, d,
                     (unsigned long long)mg.acct.traffic.at(s, d),
                     (unsigned long long)ref.traffic.at(s, d));
        ok = false;
      }
  if (mg.digests != expected) {
    std::fprintf(stderr, "check: digest sets differ (%zu vs %zu entries)\n",
                 mg.digests.size(), expected.size());
    for (const auto& [key, h] : expected) {
      const auto it = mg.digests.find(key);
      if (it == mg.digests.end())
        std::fprintf(stderr, "  missing tile %d display %d\n", key.first,
                     key.second);
      else if (it->second != h)
        std::fprintf(stderr, "  mismatch tile %d display %d\n", key.first,
                     key.second);
    }
    ok = false;
  }
  if (mg.degraded != 0) {
    std::fprintf(stderr, "check: %llu degraded frames (expected 0)\n",
                 (unsigned long long)mg.degraded);
    ok = false;
  }
  if (mg.stats.sent < mg.stats.retransmits + mg.stats.abandoned) {
    std::fprintf(stderr, "check: inconsistent transport stats\n");
    ok = false;
  }
  std::printf(
      "wall_node check: %s (%d nodes, %zu tiles digested, "
      "%llu msgs sent, %llu retransmits)\n",
      ok ? "PASS" : "FAIL", nodes, mg.digests.size(),
      (unsigned long long)mg.stats.sent,
      (unsigned long long)mg.stats.retransmits);
  return ok ? 0 : 1;
}

int run_process(const Options& o, const pdw::core::SocketWallOptions& wall) {
  const pdw::wall::TileGeometry geo(o.width, o.height, o.m, o.n, o.overlap);
  const pdw::proto::Topology topo{o.k, geo.tiles()};
  const int nodes = topo.nodes();
  if (o.node < 0 || o.node >= nodes || o.report.empty() || o.rv_port == 0)
    return usage();

  // Observability sideband, all off by default. The tracer is global and the
  // hosts stamp spans with their node id, so a single-node process's spans
  // carry exactly this node's pid in the merged trace.
  if (wall.telemetry_port != 0 && !pdw::obs::Tracer::global().enabled())
    pdw::obs::Tracer::global().enable(size_t(1) << 15);
  if (!o.flight_dir.empty()) {
    pdw::obs::FlightRecorder::Config fc;
    fc.dir = o.flight_dir;
    fc.node = o.node;
    pdw::obs::FlightRecorder::global().configure(fc);
    pdw::obs::FlightRecorder::install_signal_handlers();
  }
  const auto telemetry =
      pdw::core::start_telemetry(wall, topo, {uint16_t(o.node)});

  const std::vector<uint8_t> es = make_stream(o);
  DigestMap digests;
  int displayed = 0;
  const pdw::core::TileDisplayFn on_display =
      [&](int t, const pdw::mpeg2::TileFrame& tf,
          const TileDisplayInfo& info) {
        digests[{t, info.display_index}] = digest_tile(tf);
        // Chaos hook: die mid-run via the real fatal-signal path, so the
        // flight recorder's handler writes the post-mortem dump.
        if (o.die_after > 0 && ++displayed >= o.die_after)
          std::raise(SIGTERM);
      };
  WallContext ctx(geo, o.k, es, wall, on_display);
  pdw::core::prewarm_wire_pool(ctx.root, topo);

  pdw::net::SocketFabric fabric(
      o.node, nodes, {.metrics = wall.metrics, .injector = wall.injector});
  pdw::net::RendezvousConfig rv_cfg;
  rv_cfg.timeout_s = o.timeout_s;

  // The root hosts the rendezvous listener on the well-known port.
  std::unique_ptr<pdw::net::RendezvousServer> rv;
  if (o.node == topo.root()) {
    rv = std::make_unique<pdw::net::RendezvousServer>(nodes, o.rv_port);
    rv->serve_async(rv_cfg);
  }

  // Post before the peer map even exists, so the first inbound picture
  // never finds the mailbox empty.
  pdw::core::post_initial_credits(fabric, topo, o.node);
  if (!pdw::core::join_wall(fabric, {pdw::net::kLoopbackIp, o.rv_port},
                            rv_cfg)) {
    std::fprintf(stderr, "node %d: rendezvous timeout\n", o.node);
    return 3;
  }
  if (rv && rv->result() != pdw::net::RendezvousStatus::kOk) {
    std::fprintf(stderr, "root: rendezvous listener timed out\n");
    return 3;
  }

  // No coordinator process: the root leaves its health monitor as soon as
  // every decoder reported.
  ctx.root_stop.store(true);
  // Every role alike: host the node until it is done, linger so peers' tail
  // retransmissions are still t-acked, then stop the fabric.
  std::thread host([&] { pdw::core::run_node(ctx, fabric, o.node); });
  ctx.wait_done(o.node);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(int(o.linger_s * 1000)));
  fabric.shutdown();
  host.join();

  if (telemetry) telemetry->stop();  // final flush + Bye, after all spans
  const pdw::net::ReliableStats& final_stats = ctx.ep_stats[size_t(o.node)];
  write_report(o.report, o.node, nodes, ctx, final_stats, digests);
  std::printf("node %d done: %llu sent, %llu retransmits, %.2fs\n", o.node,
              (unsigned long long)final_stats.sent,
              (unsigned long long)final_stats.retransmits,
              ctx.timer.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  pdw::core::SocketWallOptions wall;
  pdw::net::FaultInjector injector;
  if (!parse(argc, argv, &o, &wall, &injector)) return usage();
  if (o.check) return run_check(o);
  return run_process(o, wall);
}
