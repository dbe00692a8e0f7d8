// Fault-tolerant cluster runtime tests.
//
// Two layers under test together:
//   * net::ReliableEndpoint over a faulty fabric — every non-fatal fault
//     schedule (drops, duplicates, corruption, delay/reorder) must leave the
//     decoded wall bit-exact against the serial decoder;
//   * the health monitor + recovery protocol — a killed decoder node is
//     detected by heartbeat timeout and its tile either adopted (bit-exact
//     again from the next closed-GOP picture) or frozen (degraded mode).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/pipeline.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "net/fault.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw {
namespace {

using core::ClusterPipeline;
using core::FtOptions;
using proto::RecoveryPolicy;
using core::TileDisplayInfo;
using mpeg2::Frame;

constexpr int kW = 256, kH = 192, kFrames = 12, kK = 2;

// gop_size 4 gives closed-GOP resync points at coded pictures 0, 4 and 8 —
// short enough that a mid-run crash always has a resync picture ahead.
const std::vector<uint8_t>& stream() {
  static const std::vector<uint8_t> es = [] {
    enc::EncoderConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.gop_size = 4;
    cfg.b_frames = 2;
    cfg.target_bpp = 0.4;
    const auto gen =
        video::make_scene(video::SceneKind::kMovingObjects, kW, kH, 21);
    enc::Mpeg2Encoder encoder(cfg);
    return encoder.encode(kFrames,
                          [&](int i, Frame* f) { gen->render(i, f); });
  }();
  return es;
}

const std::vector<Frame>& serial_frames() {
  static const std::vector<Frame> frames = [] {
    std::vector<Frame> out;
    mpeg2::Mpeg2Decoder dec;
    dec.decode(stream(), [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
      out.push_back(f);
    });
    return out;
  }();
  return frames;
}

const wall::TileGeometry& geometry() {
  static const wall::TileGeometry geo(kW, kH, 2, 2, 16);
  return geo;
}

struct FtRun {
  std::vector<Frame> frames;   // finalized wall frames, display order
  std::vector<bool> degraded;  // per slot: any degraded tile or filled hole
  core::ClusterStats stats;
};

// Run the threaded pipeline under `ft`, assembling wall frames the way a
// fault-tolerant display would: degraded tiles never overwrite exact pixels,
// and slots with holes (dead, unadopted tile) freeze the previous frame.
FtRun ft_decode(FtOptions ft) {
  const wall::TileGeometry& geo = geometry();
  ClusterPipeline pipeline(geo, kK, stream(), ft);
  struct Slot {
    std::unique_ptr<wall::WallAssembler> assembler;
    bool degraded = false;
  };
  std::map<int, Slot> slots;
  FtRun run;
  run.stats = pipeline.run([&](int tile, const mpeg2::TileFrame& tf,
                               const TileDisplayInfo& info) {
    Slot& s = slots[info.display_index];
    if (!s.assembler) s.assembler = std::make_unique<wall::WallAssembler>(geo);
    s.assembler->add_tile(tile, tf, /*exact=*/!info.degraded);
    s.degraded = s.degraded || info.degraded;
  });
  run.frames.reserve(slots.size());
  const Frame* prev = nullptr;
  for (auto& [index, s] : slots) {
    if (!s.assembler->coverage_complete()) {
      s.assembler->fill_uncovered(prev);  // freeze-last-frame recovery
      s.degraded = true;
    }
    run.frames.push_back(s.assembler->frame());
    run.degraded.push_back(s.degraded);
    prev = &run.frames.back();
  }
  return run;
}

bool slot_matches_serial(const FtRun& run, size_t i) {
  const Frame a = wall::crop_frame(serial_frames()[i], kW, kH);
  const Frame b = wall::crop_frame(run.frames[i], kW, kH);
  return a.y == b.y && a.cb == b.cb && a.cr == b.cr;
}

// ---------------------------------------------------------------------------
// Non-fatal fault schedules: the reliable transport must absorb every one of
// them and deliver a bit-exact wall with nothing flagged degraded.

struct Schedule {
  const char* name;
  uint64_t seed;
  net::FaultRates rates;
};

const Schedule kSchedules[] = {
    {"drop_light", 11, {.drop = 0.03}},
    {"drop_heavy", 12, {.drop = 0.15}},
    {"dup", 13, {.dup = 0.25}},
    {"corrupt", 14, {.corrupt = 0.12}},
    {"delay", 15, {.delay = 0.25, .delay_hold = 3}},
    {"drop_dup", 16, {.drop = 0.08, .dup = 0.12}},
    {"corrupt_delay", 17, {.corrupt = 0.15, .delay = 0.15}},
    {"everything", 18, {.drop = 0.05, .dup = 0.08, .corrupt = 0.06,
                        .delay = 0.10}},
};

class NonFatalSchedule : public ::testing::TestWithParam<Schedule> {};

TEST_P(NonFatalSchedule, StaysBitExact) {
  const Schedule& sched = GetParam();
  const net::FaultInjector injector(sched.seed, sched.rates);
  FtOptions ft;
  ft.injector = &injector;
  const FtRun run = ft_decode(ft);

  ASSERT_EQ(run.frames.size(), serial_frames().size());
  for (size_t i = 0; i < run.frames.size(); ++i) {
    EXPECT_FALSE(run.degraded[i]) << "slot " << i;
    EXPECT_TRUE(slot_matches_serial(run, i)) << "slot " << i;
  }
  EXPECT_EQ(run.stats.ft.degraded_frames, 0u);
  EXPECT_EQ(run.stats.ft.skipped_pictures, 0u);
  EXPECT_TRUE(run.stats.ft.recoveries.empty());

  // The transport actually had to work for it.
  const net::ReliableStats& tr = run.stats.ft.transport;
  if (sched.rates.drop > 0) {
    EXPECT_GT(tr.retransmits, 0u) << sched.name;
  }
  if (sched.rates.dup > 0) {
    EXPECT_GT(tr.dup_drops, 0u) << sched.name;
  }
  if (sched.rates.corrupt > 0) {
    EXPECT_GT(tr.crc_drops, 0u) << sched.name;
  }
  EXPECT_EQ(tr.abandoned, 0u) << sched.name;
}

INSTANTIATE_TEST_SUITE_P(Schedules, NonFatalSchedule,
                         ::testing::ValuesIn(kSchedules),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------------
// Node death.

net::FaultInjector crash_injector(int tile, uint64_t at_delivery) {
  net::FaultInjector inj;
  net::FaultEvent ev;
  ev.kind = net::FaultEvent::Kind::kCrash;
  ev.dst = 1 + kK + tile;  // the decoder node owning `tile`
  ev.at_ordinal = at_delivery;
  inj.add_event(ev);
  return inj;
}

constexpr double kHeartbeatTimeoutS = 0.25;

FtOptions crash_options(const net::FaultInjector* inj, RecoveryPolicy policy) {
  FtOptions ft;
  ft.injector = inj;
  ft.recovery = policy;
  ft.protocol.heartbeat_interval_s = 0.01;
  ft.protocol.heartbeat_timeout_s = kHeartbeatTimeoutS;
  return ft;
}

TEST(NodeDeath, AdoptionRecoversAtNextClosedGop) {
  // Kill tile 3's node mid-run (at its 25th delivered message, ~picture 3).
  const auto injector = crash_injector(3, 25);
  const FtRun run = ft_decode(crash_options(&injector, RecoveryPolicy::kAdopt));

  ASSERT_EQ(run.stats.ft.recoveries.size(), 1u);
  const core::RecoveryEvent& rec = run.stats.ft.recoveries[0];
  EXPECT_EQ(rec.dead_tile, 3);
  ASSERT_GE(rec.adopter_tile, 0);
  EXPECT_NE(rec.adopter_tile, 3);
  // Detection alone costs at least one heartbeat timeout: the root's clock
  // starts with every node's last heartbeat, and it declares a death only
  // once a node has been silent that long.
  EXPECT_GE(rec.detect_time_s, kHeartbeatTimeoutS);
  EXPECT_GT(rec.resync_time_s, rec.detect_time_s);
  // Resync must land on a closed-GOP boundary (gop_size 4).
  EXPECT_EQ(rec.resync_pic % 4, 0u);
  EXPECT_LT(rec.resync_pic, uint32_t(kFrames));

  // Every display slot still exists (holes were frozen), and everything from
  // the resync picture's slot on is bit-exact again.
  ASSERT_EQ(run.frames.size(), serial_frames().size());
  EXPECT_GT(run.stats.ft.degraded_frames, 0u);
  int degraded_slots = 0;
  for (size_t i = 0; i < run.frames.size(); ++i) {
    if (i >= size_t(rec.resync_pic)) {
      EXPECT_TRUE(slot_matches_serial(run, i)) << "slot " << i;
      EXPECT_FALSE(run.degraded[i]) << "slot " << i;
    }
    // Never silently wrong: a slot either matches the serial decode or is
    // flagged degraded.
    EXPECT_TRUE(run.degraded[i] || slot_matches_serial(run, i))
        << "slot " << i << " silently wrong";
    degraded_slots += run.degraded[i] ? 1 : 0;
  }
  EXPECT_GT(degraded_slots, 0);
}

TEST(NodeDeath, DegradePolicyFreezesTileForRestOfRun) {
  const auto injector = crash_injector(3, 25);
  const FtRun run =
      ft_decode(crash_options(&injector, RecoveryPolicy::kDegrade));

  ASSERT_EQ(run.stats.ft.recoveries.size(), 1u);
  const core::RecoveryEvent& rec = run.stats.ft.recoveries[0];
  EXPECT_EQ(rec.dead_tile, 3);
  EXPECT_EQ(rec.adopter_tile, -1);
  EXPECT_GE(rec.detect_time_s, kHeartbeatTimeoutS);
  EXPECT_EQ(rec.resync_time_s, 0.0);  // never resynchronized

  // The run still completes with a full wall frame per display slot — the
  // dead tile's region is frozen, flagged degraded, never missing.
  ASSERT_EQ(run.frames.size(), serial_frames().size());
  EXPECT_TRUE(run.degraded.back());
  int degraded_slots = 0;
  for (size_t i = 0; i < run.frames.size(); ++i) {
    EXPECT_TRUE(run.degraded[i] || slot_matches_serial(run, i))
        << "slot " << i << " silently wrong";
    degraded_slots += run.degraded[i] ? 1 : 0;
  }
  EXPECT_GT(degraded_slots, 0);
  // The first slot precedes any possible crash fallout... it may still be
  // emitted after the crash, so only require that *some* early slot is exact.
  EXPECT_TRUE(slot_matches_serial(run, 0));
}

}  // namespace
}  // namespace pdw
