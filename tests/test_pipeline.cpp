// Threaded cluster pipeline tests: the full Table-3 protocol with real
// concurrency — bit-exactness against the serial decoder, in-order delivery
// (built into the pipeline as CHECKs), flow-control compliance (the fabric
// CHECK-fails on overruns), and traffic accounting invariants.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "core/hosts.h"
#include "core/lockstep.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "net/fault.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw {
namespace {

using core::ClusterPipeline;
using core::ClusterStats;
using core::TileDisplayInfo;
using mpeg2::Frame;

std::vector<uint8_t> make_stream(int w, int h, int frames) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 21);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, Frame* f) { gen->render(i, f); });
}

std::vector<Frame> serial_decode(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

struct ThreadedRun {
  std::vector<Frame> frames;
  ClusterStats stats;
};

enum class Engine { kThreaded, kSocket };

ThreadedRun threaded_decode(const std::vector<uint8_t>& es,
                            const wall::TileGeometry& geo, int k,
                            Engine engine = Engine::kThreaded) {
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  std::map<int, Frame> finished;

  ThreadedRun run;
  const core::TileDisplayFn on_display = [&](int tile,
                                             const mpeg2::TileFrame& tf,
                                             const TileDisplayInfo& info) {
    Pending& p = pending[info.display_index];
    if (!p.assembler) p.assembler = std::make_unique<wall::WallAssembler>(geo);
    p.assembler->add_tile(tile, tf);
    if (++p.tiles == geo.tiles()) {
      p.assembler->check_coverage();
      finished.emplace(info.display_index, p.assembler->frame());
      pending.erase(info.display_index);
    }
  };
  run.stats = engine == Engine::kSocket
                  ? core::run_socket_wall(geo, k, es, on_display)
                  : ClusterPipeline(geo, k, es).run(on_display);
  EXPECT_TRUE(pending.empty());
  int next = 0;
  while (finished.count(next)) {
    run.frames.push_back(std::move(finished.at(next)));
    finished.erase(next);
    ++next;
  }
  EXPECT_TRUE(finished.empty());
  return run;
}

class ThreadedPipeline : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ThreadedPipeline, BitExactAgainstSerial) {
  const auto [m, n, k] = GetParam();
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, m, n, 16);
  const auto serial = serial_decode(es);
  const auto run = threaded_decode(es, geo, k);
  ASSERT_EQ(run.frames.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const Frame a = wall::crop_frame(serial[i], w, h);
    const Frame b = wall::crop_frame(run.frames[i], w, h);
    ASSERT_EQ(a.y, b.y) << "frame " << i;
    ASSERT_EQ(a.cb, b.cb);
    ASSERT_EQ(a.cr, b.cr);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ThreadedPipeline,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(2, 2, 2),
                                           std::make_tuple(3, 2, 3),
                                           std::make_tuple(2, 2, 5)),
                         [](const auto& info) {
                           const auto& p = info.param;
                           std::ostringstream name;
                           name << "m" << std::get<0>(p) << "n" << std::get<1>(p)
                                << "k" << std::get<2>(p);
                           return name.str();
                         });

// Both engines run through the one wall runner, which assembles the traffic
// matrix from each node's send row.
class WallStats : public ::testing::TestWithParam<Engine> {};

TEST_P(WallStats, TrafficAccountingIsConserved) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  const auto run = threaded_decode(es, geo, 2, GetParam());
  // The in-process fabric sees both ends of every message; a socket fabric
  // only counts what arrived, and a receiver drops what it cannot take.
  const bool in_process = GetParam() == Engine::kThreaded;

  uint64_t sent = 0, recv = 0;
  for (const auto& c : run.stats.node_counters) {
    sent += c.sent_bytes;
    recv += c.recv_bytes;
  }
  if (in_process) {
    EXPECT_EQ(sent, recv);
  }
  EXPECT_GT(sent, 0u);

  // Traffic matrix row sums equal node counters (column sums too in
  // process).
  const int nodes = run.stats.nodes;
  for (int n = 0; n < nodes; ++n) {
    uint64_t row = 0, col = 0;
    for (int d = 0; d < nodes; ++d) {
      row += run.stats.traffic_matrix.at(n, d);
      col += run.stats.traffic_matrix.at(d, n);
    }
    EXPECT_EQ(row, run.stats.node_counters[size_t(n)].sent_bytes);
    if (in_process) {
      EXPECT_EQ(col, run.stats.node_counters[size_t(n)].recv_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, WallStats,
                         ::testing::Values(Engine::kThreaded, Engine::kSocket),
                         [](const auto& info) {
                           return info.param == Engine::kSocket
                                      ? std::string("socket")
                                      : std::string("threaded");
                         });

TEST(ThreadedPipelineStats, RootSendsOnlyToSplitters) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  ClusterPipeline pipeline(geo, 2, es);
  const auto stats = pipeline.run(nullptr);
  // Root (node 0) must not send application traffic to decoders directly.
  // The reliable transport does ack each decoder's "finished" report with a
  // single header-only transport ack, so allow at most that.
  for (int t = 0; t < geo.tiles(); ++t) {
    const int d = pipeline.decoder_node(t);
    EXPECT_LE(stats.traffic_matrix.at(0, d),
              uint64_t(net::Message::kHeaderBytes));
  }
  // Both splitters carry picture traffic (round-robin balance).
  EXPECT_GT(stats.traffic_matrix.at(0, 1), 0u);
  EXPECT_GT(stats.traffic_matrix.at(0, 2), 0u);
}

TEST(ThreadedPipelineStats, SplitterSendOverheadIsModest) {
  // Paper §5.6: SPH headers make a splitter's send volume ~20% larger than
  // its receive volume at high resolutions (the relative overhead grows as
  // resolution shrinks, which the paper also notes). At DVD-class resolution
  // with a 2x2 wall the band is looser: >1x (headers always add something)
  // and well under 2x.
  const int w = 720, h = 480;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  ClusterPipeline pipeline(geo, 1, es);
  const auto stats = pipeline.run(nullptr);
  // The splitter is node 1. Count protocol-level bytes, first transmissions
  // only: the transport counters also count every retransmitted copy of a
  // sub-picture, and how many there are depends on scheduling.
  const uint64_t sent = stats.wire.traffic.sent_by(1);
  const uint64_t recv = stats.wire.traffic.received_by(1);
  EXPECT_GT(sent, recv);
  // At this small frame size the fixed per-run SPH cost amortizes poorly
  // (short rows, few bits per macroblock), so allow up to 2.5x; the paper's
  // ~20% figure at ultra-high resolution is reproduced by the Figure 9
  // benchmark, not here.
  EXPECT_LT(double(sent), double(recv) * 2.5);
}

// --- The multi-process shape, hosted on threads ------------------------------

uint64_t digest_tile(const mpeg2::TileFrame& tf) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const mpeg2::Plane* pl : {&tf.y(), &tf.cb(), &tf.cr()})
    for (int y = 0; y < pl->height(); ++y)
      for (int x = 0; x < pl->width(); ++x) {
        h ^= pl->row(y)[x];
        h *= 1099511628211ull;
      }
  return h;
}

// (tile, display index) -> digest.
using DigestMap = std::map<std::pair<int, int>, uint64_t>;

struct ProcessWallRun {
  proto::WireAccounting acct;  // merged over every node's own accounting
  DigestMap digests;
  uint64_t degraded = 0;
  uint64_t retransmits = 0;
};

// Every node of the wall hosted the way one wall_node process hosts its
// node, each on a thread of its own: its own context and accounting, its own
// SocketFabric, the rendezvous, run_node, then the tail every role shares —
// wait until the node is done, linger, shut the fabric down, join.
ProcessWallRun run_process_wall(const std::vector<uint8_t>& es,
                                const wall::TileGeometry& geo, int k,
                                const net::FaultInjector* injector) {
  const proto::Topology topo{k, geo.tiles()};
  const int n = topo.nodes();
  core::SocketWallOptions opts;
  opts.injector = injector;
  net::RendezvousServer rv(n);
  net::RendezvousConfig rv_cfg;
  rv_cfg.timeout_s = 20;
  rv.serve_async(rv_cfg);

  std::vector<proto::WireAccounting> accts(static_cast<size_t>(n));
  std::vector<DigestMap> digests(static_cast<size_t>(n));
  std::vector<uint64_t> degraded(static_cast<size_t>(n));
  std::vector<uint64_t> retransmits(static_cast<size_t>(n));
  std::vector<std::thread> processes;
  for (int node = 0; node < n; ++node)
    processes.emplace_back([&, node] {
      const core::TileDisplayFn on_display =
          [&](int tile, const mpeg2::TileFrame& tf,
              const TileDisplayInfo& info) {
            digests[size_t(node)][{tile, info.display_index}] =
                digest_tile(tf);
          };
      core::WallContext ctx(geo, k, es, opts, on_display);
      core::prewarm_wire_pool(ctx.root, topo);
      net::SocketFabric fabric(
          node, n, {.metrics = opts.metrics, .injector = opts.injector});
      core::post_initial_credits(fabric, topo, node);
      PDW_CHECK(core::join_wall(fabric, rv.endpoint(), rv_cfg))
          << " node " << node << " rendezvous timeout";
      ctx.root_stop.store(true);
      std::thread host([&] { core::run_node(ctx, fabric, node); });
      ctx.wait_done(node);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      fabric.shutdown();
      host.join();
      accts[size_t(node)] = std::move(ctx.acct);
      degraded[size_t(node)] = ctx.degraded.load();
      retransmits[size_t(node)] = ctx.ep_stats[size_t(node)].retransmits;
    });
  for (std::thread& p : processes) p.join();
  EXPECT_EQ(rv.result(), net::RendezvousStatus::kOk);

  ProcessWallRun run;
  run.acct.reset(n);
  for (int node = 0; node < n; ++node) {
    for (const auto& [type, count] : accts[size_t(node)].counts)
      run.acct.counts[type] += count;
    for (int src = 0; src < n; ++src)
      for (int dst = 0; dst < n; ++dst)
        run.acct.traffic.add(src, dst,
                             accts[size_t(node)].traffic.at(src, dst));
    run.digests.merge(digests[size_t(node)]);
    run.degraded += degraded[size_t(node)];
    run.retransmits += retransmits[size_t(node)];
  }
  return run;
}

// The merged per-node accounting and the tile frames of a 1-2-(2,2) wall
// hosted one context per node match the lockstep reference exactly: per-type
// message counts, the traffic matrix and every tile's frame digest. Under
// the seeded injector every node impairs what it receives, as wall_node does
// with the same --loss/--dup/--delay flags on every process.
class ProcessShapedWall : public ::testing::TestWithParam<bool> {};

TEST_P(ProcessShapedWall, MatchesLockstepReference) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_stream(w, h, 8);
  const wall::TileGeometry geo(w, h, 2, 2, 0);

  core::LockstepPipeline reference(geo, k, es);
  DigestMap expected;
  reference.run(
      [&](int tile, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        expected[{tile, info.display_index}] = digest_tile(tf);
      },
      nullptr);
  const proto::WireAccounting& ref = reference.accounting();

  net::FaultRates rates;
  rates.drop = 0.05;
  rates.dup = 0.02;
  rates.delay = 0.05;
  const net::FaultInjector injector(11, rates);
  const ProcessWallRun run =
      run_process_wall(es, geo, k, GetParam() ? &injector : nullptr);

  EXPECT_EQ(run.acct.counts, ref.counts);
  const int n = proto::Topology{k, geo.tiles()}.nodes();
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst)
      EXPECT_EQ(run.acct.traffic.at(src, dst), ref.traffic.at(src, dst))
          << src << " -> " << dst;
  EXPECT_EQ(run.digests, expected);
  EXPECT_EQ(run.degraded, 0u);
  if (GetParam()) {
    EXPECT_GT(run.retransmits, 0u);  // the injector did drop datagrams
  }
}

INSTANTIATE_TEST_SUITE_P(Links, ProcessShapedWall, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("lossy")
                                             : std::string("clean");
                         });

}  // namespace
}  // namespace pdw
