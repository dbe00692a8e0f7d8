// THE core invariant of the whole system (DESIGN.md §5.1):
// for every tiling configuration (m, n, k, overlap) and every stream class,
// the assembled output of the hierarchical parallel decoder is bit-exact
// with the serial reference decoder, frame by frame.
//
// This exercises the full chain: root picture split -> macroblock split with
// SPH state propagation -> MEI remote-macroblock pre-calculation -> tile
// decode with halo MC -> wall assembly.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/lockstep.h"
#include "core/mb_splitter.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "core/root_splitter.h"
#include "enc/encoder.h"
#include "mem/bytes.h"
#include "mpeg2/decoder.h"
#include "obs/metrics.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw {
namespace {

using core::LockstepPipeline;
using core::TileDisplayInfo;
using mpeg2::Frame;
using video::SceneKind;

std::vector<uint8_t> make_stream(int w, int h, SceneKind scene, int frames,
                                 const std::function<void(enc::EncoderConfig&)>&
                                     tweak = nullptr,
                                 uint64_t seed = 3) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  cfg.me_range = 15;  // large vectors force cross-tile references
  if (tweak) tweak(cfg);
  const auto gen = video::make_scene(scene, w, h, seed);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, Frame* f) { gen->render(i, f); });
}

// Decode serially, returning frames in display order.
std::vector<Frame> serial_decode(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

// Run the lockstep parallel pipeline, assembling wall frames per display
// index; verify coverage and overlap consistency along the way.
std::vector<Frame> parallel_decode(const std::vector<uint8_t>& es,
                                   const wall::TileGeometry& geo, int k) {
  LockstepPipeline pipeline(geo, k, es);
  // Collect tiles per display index; assemble when all tiles arrived.
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  std::vector<Frame> out;
  std::map<int, Frame> finished;
  int next_emit = 0;

  pipeline.run(
      [&](int tile, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        Pending& p = pending[info.display_index];
        if (!p.assembler)
          p.assembler = std::make_unique<wall::WallAssembler>(geo);
        p.assembler->add_tile(tile, tf);
        if (++p.tiles == geo.tiles()) {
          p.assembler->check_coverage();
          finished.emplace(info.display_index, p.assembler->frame());
          pending.erase(info.display_index);
        }
      },
      nullptr);

  EXPECT_TRUE(pending.empty()) << "incomplete wall frames";
  while (finished.count(next_emit)) {
    out.push_back(std::move(finished.at(next_emit)));
    finished.erase(next_emit);
    ++next_emit;
  }
  EXPECT_TRUE(finished.empty());
  return out;
}

void expect_bit_exact(const std::vector<uint8_t>& es,
                      const wall::TileGeometry& geo, int k) {
  const std::vector<Frame> serial = serial_decode(es);
  const std::vector<Frame> parallel = parallel_decode(es, geo, k);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Compare the display region (tiles only cover display pixels; the
    // frames are MB-aligned so compare the crop).
    const Frame a = wall::crop_frame(serial[i], geo.width(), geo.height());
    const Frame b = wall::crop_frame(parallel[i], geo.width(), geo.height());
    ASSERT_EQ(a.y, b.y) << "luma mismatch at display frame " << i;
    ASSERT_EQ(a.cb, b.cb) << "cb mismatch at display frame " << i;
    ASSERT_EQ(a.cr, b.cr) << "cr mismatch at display frame " << i;
  }
}

// ---------------------------------------------------------------------------
// Parameterized sweep over screen configurations.
// ---------------------------------------------------------------------------

struct ConfigParam {
  int m, n, k, overlap;
};

class ParallelEquivalence : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(ParallelEquivalence, MovingObjectsStreamBitExact) {
  const ConfigParam p = GetParam();
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 10);
  wall::TileGeometry geo(w, h, p.m, p.n, p.overlap);
  expect_bit_exact(es, geo, p.k);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelEquivalence,
    ::testing::Values(ConfigParam{1, 1, 1, 0}, ConfigParam{2, 1, 1, 0},
                      ConfigParam{2, 2, 1, 0}, ConfigParam{2, 2, 2, 0},
                      ConfigParam{3, 2, 2, 0}, ConfigParam{3, 3, 3, 32},
                      ConfigParam{4, 4, 4, 0}, ConfigParam{2, 2, 1, 32},
                      ConfigParam{4, 3, 5, 16}),
    [](const auto& info) {
      const ConfigParam& p = info.param;
      std::ostringstream name;
      name << "m" << p.m << "n" << p.n << "k" << p.k << "ov" << p.overlap;
      return name.str();
    });

// ---------------------------------------------------------------------------
// Stream-class sweep at a fixed nontrivial configuration.
// ---------------------------------------------------------------------------

class SceneEquivalence : public ::testing::TestWithParam<SceneKind> {};

TEST_P(SceneEquivalence, BitExactAt2x2WithOverlap) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, GetParam(), 9);
  wall::TileGeometry geo(w, h, 2, 2, 32);
  expect_bit_exact(es, geo, 2);
}

INSTANTIATE_TEST_SUITE_P(Scenes, SceneEquivalence,
                         ::testing::Values(SceneKind::kPanningTexture,
                                           SceneKind::kMovingObjects,
                                           SceneKind::kAnimation,
                                           SceneKind::kLocalizedDetail),
                         [](const auto& info) {
                           std::string n = video::scene_kind_name(info.param);
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

// ---------------------------------------------------------------------------
// Encoder-option sweeps: skips, adaptive quant, alternate scan, B-frames.
// ---------------------------------------------------------------------------

TEST(ParallelEquivalenceOptions, NoSkipsNoAdaptiveQuant) {
  const auto es = make_stream(320, 240, SceneKind::kAnimation, 8,
                              [](enc::EncoderConfig& c) {
                                c.allow_skip = false;
                                c.adaptive_quant = false;
                              });
  wall::TileGeometry geo(320, 240, 2, 2, 0);
  expect_bit_exact(es, geo, 2);
}

TEST(ParallelEquivalenceOptions, ManySkips) {
  // Static scene + B frames => lots of skipped macroblocks, including whole
  // skipped tile rows (lead/trail skip synthesis paths).
  const auto es = make_stream(320, 240, SceneKind::kAnimation, 10,
                              [](enc::EncoderConfig& c) {
                                c.target_bpp = 0.08;
                                c.b_frames = 3;
                                c.gop_size = 12;
                              });
  wall::TileGeometry geo(320, 240, 4, 2, 0);
  expect_bit_exact(es, geo, 2);
}

TEST(ParallelEquivalenceOptions, NonLinearQuantAlternateScan) {
  const auto es = make_stream(320, 240, SceneKind::kPanningTexture, 8,
                              [](enc::EncoderConfig& c) {
                                c.q_scale_type = true;
                                c.alternate_scan = true;
                              });
  wall::TileGeometry geo(320, 240, 2, 2, 16);
  expect_bit_exact(es, geo, 2);
}

TEST(ParallelEquivalenceOptions, LargeMotionRange) {
  const auto es = make_stream(320, 240, SceneKind::kMovingObjects, 8,
                              [](enc::EncoderConfig& c) { c.me_range = 40; });
  wall::TileGeometry geo(320, 240, 3, 3, 0);
  expect_bit_exact(es, geo, 3);
}

TEST(ParallelEquivalenceOptions, IntraOnlyStream) {
  const auto es = make_stream(192, 160, SceneKind::kMovingObjects, 4,
                              [](enc::EncoderConfig& c) {
                                c.gop_size = 1;
                                c.b_frames = 0;
                              });
  wall::TileGeometry geo(192, 160, 2, 2, 0);
  expect_bit_exact(es, geo, 2);
}

TEST(ParallelEquivalenceOptions, POnlyStream) {
  const auto es = make_stream(192, 160, SceneKind::kPanningTexture, 8,
                              [](enc::EncoderConfig& c) { c.b_frames = 0; });
  wall::TileGeometry geo(192, 160, 2, 2, 0);
  expect_bit_exact(es, geo, 2);
}

TEST(ParallelEquivalenceOptions, TilesNotAlignedToMacroblocks) {
  // 3 tiles across 320px: home boundaries at 106/213 — not MB aligned, so
  // boundary macroblocks are shared even without overlap.
  const auto es = make_stream(320, 240, SceneKind::kMovingObjects, 6);
  wall::TileGeometry geo(320, 240, 3, 1, 0);
  expect_bit_exact(es, geo, 2);
}

// ---------------------------------------------------------------------------
// Protocol equivalence: the threaded pipeline and the lockstep reference run
// the same proto/ state machines, so a fault-free run must emit the *same*
// protocol messages — identical per-type counts, identical node x node wire
// traffic, and identical per-picture tile x tile exchange matrices.
// (Heartbeats and transport-level retransmits/acks are excluded from
// WireAccounting by design; they are the only timing-dependent traffic.)
// ---------------------------------------------------------------------------

TEST(ProtocolEquivalence, ThreadedMatchesLockstepWireForWire) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  LockstepPipeline lockstep(geo, k, es);
  std::map<uint32_t, TrafficMatrix> trace_exchange;
  lockstep.run(nullptr, [&](const core::PictureTrace& tr) {
    if (tr.exchange_bytes.total() > 0)
      trace_exchange.emplace(tr.pic_index, tr.exchange_bytes);
  });
  const proto::WireAccounting& serial = lockstep.accounting();

  core::FtOptions ft;
  ft.per_picture_exchange = true;
  core::ClusterPipeline threaded(geo, k, es, ft);
  const core::ClusterStats stats = threaded.run(nullptr);

  // Message counts per type, exactly.
  ASSERT_EQ(stats.wire.counts.size(), serial.counts.size());
  for (const auto& [type, n] : serial.counts) {
    const auto it = stats.wire.counts.find(type);
    ASSERT_NE(it, stats.wire.counts.end()) << proto::msg_type_name(type);
    EXPECT_EQ(it->second, n) << proto::msg_type_name(type);
  }

  // Node x node protocol bytes, exactly.
  EXPECT_TRUE(stats.wire.traffic == serial.traffic);

  // Per-picture exchange matrices: threaded == lockstep accounting ==
  // lockstep per-picture traces.
  EXPECT_TRUE(stats.wire.exchange_by_picture == serial.exchange_by_picture);
  EXPECT_EQ(serial.exchange_by_picture.size(), trace_exchange.size());
  for (const auto& [pic, tm] : serial.exchange_by_picture) {
    const auto it = trace_exchange.find(pic);
    ASSERT_NE(it, trace_exchange.end()) << "picture " << pic;
    EXPECT_TRUE(it->second == tm) << "picture " << pic;
  }

  // Sanity: the run did real work through every message type.
  EXPECT_GT(serial.counts.at(proto::MsgType::kPicture), 0u);
  EXPECT_GT(serial.counts.at(proto::MsgType::kSubPicture), 0u);
  EXPECT_GT(serial.counts.at(proto::MsgType::kExchange), 0u);
  EXPECT_GT(serial.counts.at(proto::MsgType::kGoAheadAck), 0u);
}

// The real-socket transport must be invisible to the protocol: the same
// wall run over per-node UDP socket fabrics (rendezvous discovery, datagram
// framing, receiver-side flow control) produces exactly the message counts
// and node x node protocol bytes of the threaded in-process engine. Wire
// accounting is recorded at emit, so retransmissions cannot perturb it —
// any difference means the socket backend dropped, duplicated or invented
// a protocol message.
TEST(ProtocolEquivalence, SocketMatchesThreadedWireForWire) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  core::FtOptions ft;
  ft.per_picture_exchange = true;
  core::ClusterPipeline threaded(geo, k, es, ft);
  const core::ClusterStats tstats = threaded.run(nullptr);

  core::SocketWallOptions so;
  so.per_picture_exchange = true;
  const core::ClusterStats sstats = core::run_socket_wall(geo, k, es, nullptr, so);

  ASSERT_EQ(sstats.wire.counts.size(), tstats.wire.counts.size());
  for (const auto& [type, n] : tstats.wire.counts) {
    const auto it = sstats.wire.counts.find(type);
    ASSERT_NE(it, sstats.wire.counts.end()) << proto::msg_type_name(type);
    EXPECT_EQ(it->second, n) << proto::msg_type_name(type);
  }
  EXPECT_TRUE(sstats.wire.traffic == tstats.wire.traffic);
  EXPECT_TRUE(sstats.wire.exchange_by_picture ==
              tstats.wire.exchange_by_picture);
  // Clean loopback: nothing abandoned, nothing degraded.
  EXPECT_EQ(sstats.ft.transport.abandoned, 0u);
  EXPECT_EQ(sstats.ft.degraded_frames, 0u);
}

// Datagrams lost, duplicated, delayed and corrupted on the socket path (5%
// loss, 2% dup, 5% delay, 2% corruption, applied per received datagram by
// the seeded fault injector) must change nothing about the output: the
// end-to-end CRC rejects corrupted messages, retransmission recovers every
// message and the assembled wall stays bit-exact with the serial reference
// decoder.
TEST(ProtocolEquivalence, SocketWallBitExactUnderRealLoss) {
  const int w = 192, h = 128, k = 2;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  net::FaultRates rates;
  rates.drop = 0.05;
  rates.dup = 0.02;
  rates.delay = 0.05;
  rates.corrupt = 0.02;
  const net::FaultInjector injector(/*seed=*/11, rates);
  core::SocketWallOptions so;
  so.injector = &injector;

  std::map<int, std::unique_ptr<wall::WallAssembler>> pending;
  std::map<int, int> tiles_seen;
  std::map<int, Frame> finished;
  const core::ClusterStats stats = core::run_socket_wall(
      geo, k, es,
      [&](int tile, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        auto& asmb = pending[info.display_index];
        if (!asmb) asmb = std::make_unique<wall::WallAssembler>(geo);
        asmb->add_tile(tile, tf);
        if (++tiles_seen[info.display_index] == geo.tiles()) {
          asmb->check_coverage();
          finished.emplace(info.display_index, asmb->frame());
          pending.erase(info.display_index);
        }
      },
      so);

  // Enough datagrams were received that a silent no-loss run is
  // statistically impossible; losses surface as retransmissions.
  EXPECT_GT(stats.ft.transport.retransmits, 0u);
  EXPECT_EQ(stats.ft.transport.abandoned, 0u);
  EXPECT_EQ(stats.ft.degraded_frames, 0u);

  const std::vector<Frame> serial = serial_decode(es);
  ASSERT_EQ(finished.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(finished.count(int(i))) << "missing display index " << i;
    const Frame a = wall::crop_frame(serial[i], geo.width(), geo.height());
    const Frame b =
        wall::crop_frame(finished.at(int(i)), geo.width(), geo.height());
    EXPECT_TRUE(a == b) << "frame " << i << " not bit-exact";
  }
}

// The pooled buffer subsystem must be invisible on the wire: with pooling
// disabled (every allocation a plain heap malloc/free) the protocol must
// produce byte-identical messages, identical per-node traffic matrices and
// identical decoded frames. Anything else means a pooled buffer was reused
// while still referenced, or a view aliased bytes it did not own.
TEST(ProtocolEquivalence, PooledMatchesUnpooledWireForWire) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  // Byte-for-byte: the same split sub-picture serialized through the vector
  // path, then packed through pack() and the direct-into-body pack_sp().
  core::RootSplitter root(es);
  core::MacroblockSplitter splitter(geo);
  splitter.set_stream_info(root.stream_info());
  core::SplitResult sr =
      splitter.split(mem::Bytes::copy_of(root.picture(0)), 0);
  ASSERT_TRUE(sr.status.ok());
  for (int t = 0; t < geo.tiles(); ++t) {
    const core::SubPicture& sub = sr.subpictures[size_t(t)];
    std::vector<uint8_t> vec;
    sub.serialize(&vec);

    proto::SpMsg m;
    m.pic_index = 0;
    m.tile = uint16_t(t);
    m.subpicture = mem::Bytes::borrow(vec);
    m.mei = sr.mei[size_t(t)];
    const proto::Packed a = proto::pack(m);
    const proto::Packed b =
        proto::pack_sp(0, uint16_t(t), 0, sub, sr.mei[size_t(t)]);
    EXPECT_EQ(a.body, b.body) << "tile " << t;
  }

  // Full-run equivalence, pooling on vs off: identical message counts,
  // node x node traffic, per-picture exchange matrices and output frames.
  struct PoolingOff {
    PoolingOff() { mem::set_pooling_enabled(false); }
    ~PoolingOff() { mem::set_pooling_enabled(true); }
  };
  proto::WireAccounting unpooled_acct;
  std::vector<Frame> unpooled_frames;
  {
    PoolingOff off;
    LockstepPipeline lockstep(geo, k, es);
    lockstep.run(nullptr, nullptr);
    unpooled_acct = lockstep.accounting();
    unpooled_frames = parallel_decode(es, geo, k);
  }
  LockstepPipeline lockstep(geo, k, es);
  lockstep.run(nullptr, nullptr);
  const proto::WireAccounting& pooled_acct = lockstep.accounting();
  const std::vector<Frame> pooled_frames = parallel_decode(es, geo, k);

  ASSERT_EQ(pooled_acct.counts.size(), unpooled_acct.counts.size());
  for (const auto& [type, n] : unpooled_acct.counts)
    EXPECT_EQ(pooled_acct.counts.at(type), n) << proto::msg_type_name(type);
  EXPECT_TRUE(pooled_acct.traffic == unpooled_acct.traffic);
  EXPECT_TRUE(pooled_acct.exchange_by_picture ==
              unpooled_acct.exchange_by_picture);
  ASSERT_EQ(pooled_frames.size(), unpooled_frames.size());
  for (size_t i = 0; i < pooled_frames.size(); ++i) {
    EXPECT_EQ(pooled_frames[i].y, unpooled_frames[i].y) << "frame " << i;
    EXPECT_EQ(pooled_frames[i].cb, unpooled_frames[i].cb) << "frame " << i;
    EXPECT_EQ(pooled_frames[i].cr, unpooled_frames[i].cr) << "frame " << i;
  }
}

// Both engines mirror their protocol progress into the telemetry registry
// through the same obs:: instrument bundles, so a fault-free run must report
// identical totals for every engine-deterministic metric family, per node.
// (Heartbeat / control / retransmit families are wall-clock driven and
// excluded by design — see obs/metrics.h.)
TEST(ProtocolEquivalence, ThreadedMatchesLockstepMetricTotals) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_stream(w, h, SceneKind::kMovingObjects, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  obs::MetricsRegistry serial_reg;
  LockstepPipeline lockstep(geo, k, es, &serial_reg);
  lockstep.run(nullptr, nullptr);

  obs::MetricsRegistry threaded_reg;
  core::FtOptions ft;
  ft.metrics = &threaded_reg;
  core::ClusterPipeline threaded(geo, k, es, ft);
  threaded.run(nullptr);

  const obs::MetricsSnapshot a = serial_reg.snapshot();
  const obs::MetricsSnapshot b = threaded_reg.snapshot();

  const char* const families[] = {
      obs::family::kPicturesDispatched, obs::family::kPicturesSplit,
      obs::family::kPicturesDecoded,    obs::family::kPicturesSkipped,
      obs::family::kSpBytesSent,        obs::family::kExchangeBytesSent,
      obs::family::kExchangeBytesRecv,  obs::family::kGoAheadsSeen,
      obs::family::kAcksSent,           obs::family::kAcksRecv,
      obs::family::kConcealedMbs,
  };
  const proto::Topology topo{k, geo.tiles()};
  for (const char* family : families) {
    for (int node = 0; node < topo.nodes(); ++node) {
      const obs::Labels l{node, 0};
      EXPECT_EQ(a.counter_value(family, l), b.counter_value(family, l))
          << family << " node " << node;
    }
    EXPECT_EQ(a.counter_total(family), b.counter_total(family)) << family;
  }

  // And the totals are real work, not two zeros agreeing with each other.
  EXPECT_EQ(a.counter_total(obs::family::kPicturesDispatched), 8u);
  EXPECT_EQ(a.counter_total(obs::family::kPicturesDecoded),
            8u * uint64_t(geo.tiles()));
  EXPECT_GT(a.counter_total(obs::family::kSpBytesSent), 0u);
  EXPECT_GT(a.counter_total(obs::family::kExchangeBytesSent), 0u);
  EXPECT_EQ(a.counter_total(obs::family::kExchangeBytesSent),
            a.counter_total(obs::family::kExchangeBytesRecv));
}

}  // namespace
}  // namespace pdw
