// Adaptive tile partitioning (DESIGN.md §12): on a skewed stream the root
// re-cuts the wall at closed-GOP boundaries, and the output must stay
// bit-exact with the serial reference decoder across every epoch switch —
// on the lockstep reference, the threaded pipeline, the real-socket wall
// (including under genuine datagram loss) and the DES replay. The planner
// decision is a pure function of the bitstream, so every engine installs the
// same epochs; the lockstep table resolves display epochs for all of them.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/lockstep.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "sim/cluster_sim.h"
#include "video/generator.h"
#include "wall/assembler.h"
#include "wall/partition.h"

namespace pdw {
namespace {

using core::LockstepPipeline;
using core::TileDisplayInfo;
using mpeg2::Frame;

// A strongly skewed stream: the detailed region starts left-of-center and
// drifts right across the run, so the best cut lines move between GOPs.
std::vector<uint8_t> make_skewed_stream(int w, int h, int frames,
                                        int gop_size = 6) {
  video::HotRegion hot;
  hot.cx = 0.25f;
  hot.cy = 0.30f;
  hot.rx = 0.28f;
  hot.ry = 0.38f;
  hot.drift_x = 2.5f;
  hot.drift_y = 0.8f;
  const auto gen = video::make_localized_scene(w, h, 77, hot);
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = gop_size;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  cfg.me_range = 15;
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames, [&](int i, Frame* f) { gen->render(i, f); });
}

std::vector<Frame> serial_decode(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

proto::RootNode::AdaptivePartition eager_adaptive() {
  proto::RootNode::AdaptivePartition a;
  a.enabled = true;
  a.gain_threshold = 0.01;  // re-cut on nearly any predicted improvement
  return a;
}

// Collects display emissions into assembled wall frames, resolving each
// tile's rect through the *emission's* epoch (info.epoch), never the base
// geometry — exactly what a real display host must do.
struct EpochAssembler {
  EpochAssembler(const wall::TileGeometry& g, const wall::PartitionTable& t)
      : geo(g), table(t) {}

  const wall::TileGeometry& geo;
  const wall::PartitionTable& table;
  std::map<int, std::unique_ptr<wall::WallAssembler>> pending;
  std::map<int, int> tiles_seen;
  std::map<int, Frame> finished;
  uint32_t max_epoch_seen = 0;

  void add(int tile, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
    ASSERT_TRUE(table.has_epoch(info.epoch))
        << "display emission under unknown epoch " << info.epoch;
    max_epoch_seen = std::max(max_epoch_seen, info.epoch);
    auto& asmb = pending[info.display_index];
    if (!asmb) asmb = std::make_unique<wall::WallAssembler>(geo);
    asmb->add_tile(tile, tf, table.geometry(info.epoch), !info.degraded);
    if (++tiles_seen[info.display_index] == geo.tiles()) {
      asmb->check_coverage();
      finished.emplace(info.display_index, asmb->frame());
      pending.erase(info.display_index);
    }
  }

  void expect_matches_serial(const std::vector<Frame>& serial) {
    EXPECT_TRUE(pending.empty()) << "incomplete wall frames";
    ASSERT_EQ(finished.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_TRUE(finished.count(int(i))) << "missing display index " << i;
      const Frame a = wall::crop_frame(serial[i], geo.width(), geo.height());
      const Frame b =
          wall::crop_frame(finished.at(int(i)), geo.width(), geo.height());
      ASSERT_EQ(a.y, b.y) << "luma mismatch at display frame " << i;
      ASSERT_EQ(a.cb, b.cb) << "cb mismatch at display frame " << i;
      ASSERT_EQ(a.cr, b.cr) << "cr mismatch at display frame " << i;
    }
  }
};

// ---------------------------------------------------------------------------
// Lockstep reference: at least one rebalance fires and the wall stays
// bit-exact through it.

TEST(AdaptivePartitioning, LockstepBitExactAcrossEpochSwitch) {
  const int w = 320, h = 240, k = 2;
  const auto es = make_skewed_stream(w, h, 18);
  wall::TileGeometry geo(w, h, 3, 2, 0);

  LockstepPipeline pipeline(geo, k, es, nullptr, eager_adaptive());
  EpochAssembler wall{geo, pipeline.partitions()};
  pipeline.run(
      [&](int t, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        wall.add(t, tf, info);
      },
      nullptr);

  ASSERT_GE(pipeline.partitions().latest_epoch(), 1u)
      << "skewed stream never triggered a rebalance";
  EXPECT_GE(wall.max_epoch_seen, 1u) << "no frame decoded under a new epoch";
  wall.expect_matches_serial(serial_decode(es));

  // Every installed epoch is a genuine re-cut: valid m/n shape, different
  // cuts from its predecessor, applied at non-decreasing GOP boundaries.
  const wall::PartitionTable& table = pipeline.partitions();
  for (uint32_t e = 1; e <= table.latest_epoch(); ++e) {
    const wall::Partition& p = table.partition(e);
    EXPECT_EQ(p.m(), geo.m());
    EXPECT_EQ(p.n(), geo.n());
    EXPECT_FALSE(p.col_cuts_mb == table.partition(e - 1).col_cuts_mb &&
                 p.row_cuts_mb == table.partition(e - 1).row_cuts_mb)
        << "epoch " << e << " re-installed identical cuts";
    EXPECT_GE(table.apply_from(e), table.apply_from(e - 1));
  }
}

// With overlapped tiles the planner must respect the wider minimum band
// (a band narrower than the overlap would make a tile's interior empty).
TEST(AdaptivePartitioning, LockstepBitExactWithOverlap) {
  const int w = 320, h = 240, k = 2;
  const auto es = make_skewed_stream(w, h, 12);
  wall::TileGeometry geo(w, h, 2, 2, 16);

  LockstepPipeline pipeline(geo, k, es, nullptr, eager_adaptive());
  EpochAssembler wall{geo, pipeline.partitions()};
  pipeline.run(
      [&](int t, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        wall.add(t, tf, info);
      },
      nullptr);
  wall.expect_matches_serial(serial_decode(es));
}

// ---------------------------------------------------------------------------
// Threaded engine: same epochs, same pixels, same wire accounting.

TEST(AdaptivePartitioning, ThreadedBitExactAndWireEqualToLockstep) {
  const int w = 320, h = 240, k = 2;
  const auto es = make_skewed_stream(w, h, 18);
  wall::TileGeometry geo(w, h, 3, 2, 0);

  LockstepPipeline lockstep(geo, k, es, nullptr, eager_adaptive());
  lockstep.run(nullptr, nullptr);
  ASSERT_GE(lockstep.partitions().latest_epoch(), 1u);
  const proto::WireAccounting& serial_acct = lockstep.accounting();

  core::FtOptions ft;
  ft.adaptive = eager_adaptive();
  core::ClusterPipeline threaded(geo, k, es, ft);
  EpochAssembler wall{geo, lockstep.partitions()};
  const core::ClusterStats stats = threaded.run(
      [&](int t, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        wall.add(t, tf, info);
      });

  EXPECT_GE(wall.max_epoch_seen, 1u);
  wall.expect_matches_serial(serial_decode(es));

  // The rebalancing protocol itself is engine-invariant: identical message
  // counts per type (including PartitionUpdate and CostReport) and identical
  // node x node protocol bytes.
  ASSERT_EQ(stats.wire.counts.size(), serial_acct.counts.size());
  for (const auto& [type, n] : serial_acct.counts) {
    const auto it = stats.wire.counts.find(type);
    ASSERT_NE(it, stats.wire.counts.end()) << proto::msg_type_name(type);
    EXPECT_EQ(it->second, n) << proto::msg_type_name(type);
  }
  EXPECT_TRUE(stats.wire.traffic == serial_acct.traffic);
  EXPECT_GT(serial_acct.counts.at(proto::MsgType::kPartitionUpdate), 0u);
  EXPECT_GT(serial_acct.counts.at(proto::MsgType::kCostReport), 0u);
}

// ---------------------------------------------------------------------------
// Real-socket wall under 5% seeded datagram loss: partition updates and
// epoch-stamped pictures ride the same reliable links, so the rebalanced
// wall still comes out bit-exact.

TEST(AdaptivePartitioning, SocketWallBitExactUnderRealLossAcrossEpochs) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_skewed_stream(w, h, 18);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  LockstepPipeline lockstep(geo, k, es, nullptr, eager_adaptive());
  lockstep.run(nullptr, nullptr);
  ASSERT_GE(lockstep.partitions().latest_epoch(), 1u);

  net::FaultRates rates;
  rates.drop = 0.05;
  rates.delay = 0.05;
  const net::FaultInjector injector(/*seed=*/23, rates);
  core::SocketWallOptions so;
  so.adaptive = eager_adaptive();
  so.injector = &injector;

  EpochAssembler wall{geo, lockstep.partitions()};
  const core::ClusterStats stats = core::run_socket_wall(
      geo, k, es,
      [&](int t, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        wall.add(t, tf, info);
      },
      so);

  EXPECT_GT(stats.ft.transport.retransmits, 0u);
  EXPECT_EQ(stats.ft.transport.abandoned, 0u);
  EXPECT_EQ(stats.ft.degraded_frames, 0u);
  EXPECT_GE(wall.max_epoch_seen, 1u);
  wall.expect_matches_serial(serial_decode(es));
}

// ---------------------------------------------------------------------------
// DES: lockstep traces carry their split epoch, and the simulator replays an
// adaptive run exactly like a static one (its inputs are measured per-tile
// costs, already cut under the right epochs).

TEST(AdaptivePartitioning, DesReplaysAdaptiveTraces) {
  const int w = 320, h = 240, k = 2;
  const auto es = make_skewed_stream(w, h, 18);
  wall::TileGeometry geo(w, h, 3, 2, 0);

  LockstepPipeline pipeline(geo, k, es, nullptr, eager_adaptive());
  std::vector<core::PictureTrace> traces;
  pipeline.run(nullptr,
               [&](const core::PictureTrace& tr) { traces.push_back(tr); });

  ASSERT_GE(pipeline.partitions().latest_epoch(), 1u);
  uint32_t max_trace_epoch = 0;
  for (const core::PictureTrace& tr : traces) {
    EXPECT_EQ(tr.epoch, pipeline.partitions().epoch_for(tr.pic_index));
    max_trace_epoch = std::max(max_trace_epoch, tr.epoch);
  }
  EXPECT_GE(max_trace_epoch, 1u);

  sim::SimParams params;
  params.k = k;
  const sim::SimResult res = sim::simulate_cluster(traces, geo, params);
  EXPECT_EQ(res.pictures, int(traces.size()));
  EXPECT_GT(res.fps, 0.0);
  EXPECT_GT(res.makespan_s, 0.0);
}

// ---------------------------------------------------------------------------
// Fault interaction: a node death freezes the partition (no rebalance is
// planned over a recovering wall), adoption still works mid-epoch, and every
// slot is either bit-exact or flagged degraded — never silently wrong.

TEST(AdaptivePartitioning, NodeDeathFreezesPartitionAndStaysHonest) {
  const int w = 256, h = 192, k = 2;
  const auto es = make_skewed_stream(w, h, 12, /*gop_size=*/4);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  LockstepPipeline lockstep(geo, k, es, nullptr, eager_adaptive());
  lockstep.run(nullptr, nullptr);

  net::FaultInjector injector;
  net::FaultEvent ev;
  ev.kind = net::FaultEvent::Kind::kCrash;
  ev.dst = 1 + k + 3;  // the decoder node owning tile 3
  ev.at_ordinal = 25;
  injector.add_event(ev);

  core::FtOptions ft;
  ft.adaptive = eager_adaptive();
  ft.injector = &injector;
  ft.recovery = proto::RecoveryPolicy::kAdopt;
  ft.protocol.heartbeat_interval_s = 0.01;
  ft.protocol.heartbeat_timeout_s = 0.25;

  // Assemble with freeze-last-frame hole filling, as the fault suite does.
  struct Slot {
    std::unique_ptr<wall::WallAssembler> assembler;
    bool degraded = false;
  };
  std::map<int, Slot> slots;
  core::ClusterPipeline pipeline(geo, k, es, ft);
  const core::ClusterStats stats = pipeline.run(
      [&](int t, const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        // The faulted run's epochs are a deterministic prefix of the
        // fault-free lockstep run's (the partition freezes at detection,
        // it never diverges).
        ASSERT_TRUE(lockstep.partitions().has_epoch(info.epoch));
        Slot& s = slots[info.display_index];
        if (!s.assembler)
          s.assembler = std::make_unique<wall::WallAssembler>(geo);
        s.assembler->add_tile(t, tf, lockstep.partitions().geometry(info.epoch),
                              /*exact=*/!info.degraded);
        s.degraded = s.degraded || info.degraded;
      });

  ASSERT_EQ(stats.ft.recoveries.size(), 1u);
  const core::RecoveryEvent& rec = stats.ft.recoveries[0];
  EXPECT_EQ(rec.dead_tile, 3);

  const std::vector<Frame> serial = serial_decode(es);
  ASSERT_EQ(slots.size(), serial.size());
  const Frame* prev = nullptr;
  std::vector<Frame> frames;
  std::vector<bool> degraded;
  for (auto& [index, s] : slots) {
    if (!s.assembler->coverage_complete()) {
      s.assembler->fill_uncovered(prev);
      s.degraded = true;
    }
    frames.push_back(s.assembler->frame());
    degraded.push_back(s.degraded);
    prev = &frames.back();
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame a = wall::crop_frame(serial[i], w, h);
    const Frame b = wall::crop_frame(frames[i], w, h);
    const bool exact = a.y == b.y && a.cb == b.cb && a.cr == b.cr;
    EXPECT_TRUE(degraded[i] || exact) << "slot " << i << " silently wrong";
    if (rec.adopter_tile >= 0 && i >= size_t(rec.resync_pic)) {
      EXPECT_TRUE(exact) << "slot " << i << " not exact after resync";
      EXPECT_FALSE(degraded[i]) << "slot " << i;
    }
  }
}

}  // namespace
}  // namespace pdw
