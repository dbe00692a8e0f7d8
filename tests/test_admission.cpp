// Admission controller and QoS degradation ladder tests.
//
// Two layers pinned down here:
//   * the pure controller — typed verdicts against a declared-cost budget,
//     strict priority order in the degradation ladder, a balanced ledger;
//   * bit-exact resync — a degraded stream that reverts at the next
//     closed-GOP I picture must emit frames identical to an never-degraded
//     run from that picture onward.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/lockstep.h"
#include "enc/encoder.h"
#include "proto/admission.h"
#include "video/generator.h"

namespace pdw::proto {
namespace {

using mpeg2::PicType;

// Cost unit: one SD tenant (45x30 mb at 24 fps).
TenantSpec sd_spec(PriorityClass cls) {
  TenantSpec s;
  s.width_mb = 45;
  s.height_mb = 30;
  s.fps = 24;
  s.priority = cls;
  return s;
}

const double kCost = tenant_cost(sd_spec(PriorityClass::kStandard));

AdmissionController::Config config(double tenants_worth) {
  AdmissionController::Config cfg;
  cfg.capacity.mb_per_s = kCost * tenants_worth;
  cfg.capacity.admit_headroom = 1.0;  // exact budgets make the math readable
  return cfg;
}

TEST(AdmissionOffer, AcceptWithinBudget) {
  AdmissionController adm(config(2.0));
  const AdmissionController::Reply r0 =
      adm.offer(0, sd_spec(PriorityClass::kStandard));
  const AdmissionController::Reply r1 =
      adm.offer(1, sd_spec(PriorityClass::kStandard));
  EXPECT_EQ(r0.verdict, AdmissionVerdict::kAccept);
  EXPECT_EQ(r0.level, DegradeLevel::kNone);
  EXPECT_EQ(r1.verdict, AdmissionVerdict::kAccept);
  EXPECT_TRUE(adm.admitted(0));
  EXPECT_TRUE(adm.admitted(1));
  EXPECT_DOUBLE_EQ(adm.committed_load(), 2.0 * kCost);
  EXPECT_DOUBLE_EQ(adm.utilization(), 1.0);
}

TEST(AdmissionOffer, RenegotiateAtShallowestFittingLevel) {
  // Budget for 1.7 tenants: the second same-class tenant cannot displace the
  // first, but fits at skip-B (0.5x with the default b_share).
  AdmissionController adm(config(1.7));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kStandard)).verdict,
            AdmissionVerdict::kAccept);
  const AdmissionController::Reply r =
      adm.offer(1, sd_spec(PriorityClass::kStandard));
  EXPECT_EQ(r.verdict, AdmissionVerdict::kRenegotiate);
  EXPECT_EQ(r.level, DegradeLevel::kSkipB);
  EXPECT_EQ(adm.level(1), DegradeLevel::kSkipB);
  EXPECT_DOUBLE_EQ(adm.committed_load(), 1.5 * kCost);
}

TEST(AdmissionOffer, RejectWhenNoLevelFits) {
  // Budget for 1.1 tenants: even skip-P (0.2x) does not fit a second
  // same-class tenant, and equal-priority tenants are never degraded for it.
  AdmissionController adm(config(1.1));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kStandard)).verdict,
            AdmissionVerdict::kAccept);
  const AdmissionController::Reply r =
      adm.offer(1, sd_spec(PriorityClass::kStandard));
  EXPECT_EQ(r.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(r.level, DegradeLevel::kFreeze);
  EXPECT_FALSE(adm.admitted(1));
  EXPECT_EQ(adm.level(0), DegradeLevel::kNone);  // incumbent untouched
  EXPECT_DOUBLE_EQ(adm.committed_load(), kCost);
}

TEST(AdmissionOffer, DuplicateLiveIdAndZeroCostAreProtocolErrors) {
  AdmissionController adm(config(8.0));
  ASSERT_EQ(adm.offer(3, sd_spec(PriorityClass::kStandard)).verdict,
            AdmissionVerdict::kAccept);
  EXPECT_EQ(adm.offer(3, sd_spec(PriorityClass::kPremium)).verdict,
            AdmissionVerdict::kReject);  // id 3 is live
  EXPECT_EQ(adm.level(3), DegradeLevel::kNone);  // original tenant untouched

  TenantSpec zero;  // 0x0 @ 0 fps
  EXPECT_EQ(adm.offer(4, zero).verdict, AdmissionVerdict::kReject);
  EXPECT_FALSE(adm.admitted(4));

  // After release the id is reusable.
  adm.release(3);
  EXPECT_FALSE(adm.admitted(3));
  EXPECT_EQ(adm.offer(3, sd_spec(PriorityClass::kStandard)).verdict,
            AdmissionVerdict::kAccept);
}

TEST(AdmissionOffer, HigherClassArrivalDegradesLowerClassesFirst) {
  // background + standard admitted; a premium arrival must make room by
  // walking the background tenant all the way down before touching standard.
  AdmissionController adm(config(2.1));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kBackground)).verdict,
            AdmissionVerdict::kAccept);
  ASSERT_EQ(adm.offer(1, sd_spec(PriorityClass::kStandard)).verdict,
            AdmissionVerdict::kAccept);
  const AdmissionController::Reply r =
      adm.offer(2, sd_spec(PriorityClass::kPremium));
  EXPECT_EQ(r.verdict, AdmissionVerdict::kAccept);
  EXPECT_EQ(adm.level(0), DegradeLevel::kFreeze);  // background froze...
  EXPECT_EQ(adm.level(1), DegradeLevel::kNone);    // ...standard untouched
  // Every ladder step is in the log, in order, all against stream 0.
  int degrades = 0;
  for (const auto& a : adm.log())
    if (a.kind == AdmissionController::Action::Kind::kDegrade) {
      EXPECT_EQ(a.stream, 0);
      ++degrades;
    }
  EXPECT_EQ(degrades, 3);  // kNone -> kSkipB -> kSkipP -> kFreeze
}

TEST(AdmissionOffer, LowerClassArrivalCannotDegradeHigher) {
  AdmissionController adm(config(1.1));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kPremium)).verdict,
            AdmissionVerdict::kAccept);
  EXPECT_EQ(adm.offer(1, sd_spec(PriorityClass::kBackground)).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(adm.level(0), DegradeLevel::kNone);
}

TEST(AdmissionLadder, PressureDegradesLowestClassFirstRevertsMirror) {
  AdmissionController adm(config(4.0));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kBackground)).verdict,
            AdmissionVerdict::kAccept);
  ASSERT_EQ(adm.offer(1, sd_spec(PriorityClass::kPremium)).verdict,
            AdmissionVerdict::kAccept);

  // Overload signal: background absorbs every step before premium is touched.
  adm.on_pressure(1.5);
  EXPECT_EQ(adm.level(0), DegradeLevel::kSkipB);
  adm.on_pressure(1.5);
  EXPECT_EQ(adm.level(0), DegradeLevel::kSkipP);
  adm.on_pressure(1.5);
  EXPECT_EQ(adm.level(0), DegradeLevel::kFreeze);
  EXPECT_EQ(adm.level(1), DegradeLevel::kNone);
  adm.on_pressure(1.5);  // only premium left; now it degrades
  EXPECT_EQ(adm.level(1), DegradeLevel::kSkipB);

  // Recovery signal: premium reverts first (mirror order). The revert is
  // armed, not applied — the level holds until a closed-GOP picture.
  adm.on_pressure(0.2);
  EXPECT_EQ(adm.level(1), DegradeLevel::kSkipB);
  ASSERT_NE(adm.tenant(1), nullptr);
  EXPECT_EQ(adm.tenant(1)->target, DegradeLevel::kNone);
  EXPECT_EQ(adm.log().back().kind, AdmissionController::Action::Kind::kArmRevert);

  // Non-resync pictures do not apply it.
  adm.should_shed(1, PicType::P, /*closed_gop=*/false);
  EXPECT_EQ(adm.level(1), DegradeLevel::kSkipB);
  // The closed-GOP I picture does.
  adm.should_shed(1, PicType::I, /*closed_gop=*/true);
  EXPECT_EQ(adm.level(1), DegradeLevel::kNone);
  EXPECT_EQ(adm.log().back().kind, AdmissionController::Action::Kind::kRevert);
}

TEST(AdmissionLadder, DeadBandHoldsTheLadderStill) {
  AdmissionController adm(config(4.0));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kBackground)).verdict,
            AdmissionVerdict::kAccept);
  adm.on_pressure(1.2);
  ASSERT_EQ(adm.level(0), DegradeLevel::kSkipB);
  const size_t log_size = adm.log().size();
  for (double s : {0.8, 0.9, 0.99}) adm.on_pressure(s);  // inside the band
  EXPECT_EQ(adm.log().size(), log_size);
  EXPECT_EQ(adm.level(0), DegradeLevel::kSkipB);
}

TEST(AdmissionLadder, ShedMatrixPerLevel) {
  AdmissionController adm(config(4.0));
  ASSERT_EQ(adm.offer(0, sd_spec(PriorityClass::kBackground)).verdict,
            AdmissionVerdict::kAccept);
  const auto shed = [&](PicType t) {
    return adm.should_shed(0, t, /*closed_gop=*/false);
  };
  // kNone: everything decodes.
  EXPECT_FALSE(shed(PicType::I));
  EXPECT_FALSE(shed(PicType::P));
  EXPECT_FALSE(shed(PicType::B));
  adm.on_pressure(2.0);  // kSkipB
  EXPECT_FALSE(shed(PicType::I));
  EXPECT_FALSE(shed(PicType::P));
  EXPECT_TRUE(shed(PicType::B));
  adm.on_pressure(2.0);  // kSkipP
  EXPECT_FALSE(shed(PicType::I));
  EXPECT_TRUE(shed(PicType::P));
  EXPECT_TRUE(shed(PicType::B));
  adm.on_pressure(2.0);  // kFreeze
  EXPECT_TRUE(shed(PicType::I));
  EXPECT_TRUE(shed(PicType::P));
  EXPECT_TRUE(shed(PicType::B));
  ASSERT_NE(adm.tenant(0), nullptr);
  EXPECT_EQ(adm.tenant(0)->shed, 6u);
  EXPECT_EQ(adm.tenant(0)->pictures, 12u);
  // An un-admitted stream never sheds (the session must not consult a ghost).
  EXPECT_FALSE(adm.should_shed(7, PicType::B, false));
}

TEST(AdmissionLedger, ReleaseDrainsCommittedLoad) {
  AdmissionController adm(config(3.0));
  for (uint8_t id = 0; id < 3; ++id)
    ASSERT_EQ(adm.offer(id, sd_spec(PriorityClass::kStandard)).verdict,
              AdmissionVerdict::kAccept);
  adm.release(1);
  EXPECT_DOUBLE_EQ(adm.committed_load(), 2.0 * kCost);
  adm.release(1);  // double release is a no-op
  EXPECT_DOUBLE_EQ(adm.committed_load(), 2.0 * kCost);
  adm.release(0);
  adm.release(2);
  EXPECT_NEAR(adm.committed_load(), 0.0, 1e-9);
}

// --------------------------------------------------------------------------
// Bit-exact resync: degrade mid-stream, revert at the next closed-GOP I,
// compare every later frame against a never-degraded run.

constexpr int kW = 256, kH = 192, kFrames = 12;

const std::vector<uint8_t>& stream_es() {
  static const std::vector<uint8_t> es = [] {
    enc::EncoderConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.gop_size = 4;  // closed-GOP I pictures at coded indexes 0, 4, 8
    cfg.b_frames = 2;
    cfg.target_bpp = 0.4;
    const auto gen =
        video::make_scene(video::SceneKind::kMovingObjects, kW, kH, 21);
    enc::Mpeg2Encoder encoder(cfg);
    return encoder.encode(kFrames,
                          [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
  }();
  return es;
}

using FrameMap = std::map<std::pair<int, int>, mpeg2::TileFrame>;  // (slot, tile)

TEST(AdmissionResync, RevertIsBitExactFromClosedGopOnward) {
  const wall::TileGeometry geo(kW, kH, 2, 2, 16);
  const auto capture = [&](FrameMap* frames) {
    return [frames](int tile, const mpeg2::TileFrame& tf,
                    const core::TileDisplayInfo& info) {
      (*frames)[{info.display_index, tile}] = tf;
    };
  };

  FrameMap ref;
  {
    core::LockstepPipeline ss(geo, 2, stream_es());
    const auto fn = capture(&ref);
    while (!ss.done()) ss.step(fn, nullptr);
    ss.finish(fn);
  }

  FrameMap gated;
  AdmissionController adm(config(4.0));
  TenantSpec spec = sd_spec(PriorityClass::kStandard);
  ASSERT_EQ(adm.offer(0, spec).verdict, AdmissionVerdict::kAccept);
  uint64_t shed_count = 0;
  {
    core::LockstepPipeline ss(geo, 2, stream_es());
    const auto fn = capture(&gated);
    while (!ss.done()) {
      const uint32_t pic = ss.next_picture();
      if (pic == 1) adm.on_pressure(2.0);  // degrade to skip-B inside GOP 0
      if (pic == 5) adm.on_pressure(0.2);  // arm the revert inside GOP 1
      const bool shed =
          adm.should_shed(0, ss.next_picture_type(), ss.next_gop_start());
      if (shed) ++shed_count;
      ss.step(fn, nullptr, shed);
    }
    ss.finish(fn);
    EXPECT_EQ(ss.pictures_shed(), shed_count);
  }
  EXPECT_GT(shed_count, 0u);  // the ladder actually engaged
  EXPECT_EQ(adm.level(0), DegradeLevel::kNone);  // and cleanly disengaged
  bool reverted = false;
  for (const auto& a : adm.log())
    reverted |= a.kind == AdmissionController::Action::Kind::kRevert;
  EXPECT_TRUE(reverted);

  // Display invariant: shed pictures emit frozen frames, never holes.
  ASSERT_EQ(gated.size(), ref.size());

  // Bit-exact from the revert picture's GOP onward: coded picture 8 opens
  // the last closed GOP, its frames land in display slots 8..11.
  for (const auto& [key, frame] : ref) {
    if (key.first < 8) continue;
    const auto it = gated.find(key);
    ASSERT_NE(it, gated.end());
    EXPECT_TRUE(it->second.y() == frame.y() && it->second.cb() == frame.cb() &&
                it->second.cr() == frame.cr())
        << "slot " << key.first << " tile " << key.second;
  }
}

}  // namespace
}  // namespace pdw::proto
