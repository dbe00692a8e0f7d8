// Admission controller and QoS degradation ladder tests.
//
// Three layers pinned down here:
//   * the pure controller — typed verdicts against a declared-cost budget,
//     strict priority order in the degradation ladder, a balanced ledger;
//   * engine equivalence — the same request script through direct offer()
//     calls and through offer_wire() pumped over a threaded net::Fabric must
//     produce identical replies and identical Action logs (the controller is
//     sans-io: the hosting engine cannot change a decision);
//   * bit-exact resync — a degraded stream that reverts at the next
//     closed-GOP I picture must emit frames identical to an never-degraded
//     run from that picture onward.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "core/lockstep.h"
#include "enc/encoder.h"
#include "net/fabric.h"
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
  const StreamReply r0 = adm.offer(to_request(sd_spec(PriorityClass::kStandard), 0));
  const StreamReply r1 = adm.offer(to_request(sd_spec(PriorityClass::kStandard), 1));
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
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), 0)).verdict,
            AdmissionVerdict::kAccept);
  const StreamReply r = adm.offer(to_request(sd_spec(PriorityClass::kStandard), 1));
  EXPECT_EQ(r.verdict, AdmissionVerdict::kRenegotiate);
  EXPECT_EQ(r.level, DegradeLevel::kSkipB);
  EXPECT_EQ(adm.level(1), DegradeLevel::kSkipB);
  EXPECT_DOUBLE_EQ(adm.committed_load(), 1.5 * kCost);
}

TEST(AdmissionOffer, RejectWhenNoLevelFits) {
  // Budget for 1.1 tenants: even skip-P (0.2x) does not fit a second
  // same-class tenant, and equal-priority tenants are never degraded for it.
  AdmissionController adm(config(1.1));
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), 0)).verdict,
            AdmissionVerdict::kAccept);
  const StreamReply r = adm.offer(to_request(sd_spec(PriorityClass::kStandard), 1));
  EXPECT_EQ(r.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(r.level, DegradeLevel::kFreeze);
  EXPECT_FALSE(adm.admitted(1));
  EXPECT_EQ(adm.level(0), DegradeLevel::kNone);  // incumbent untouched
  EXPECT_DOUBLE_EQ(adm.committed_load(), kCost);
}

TEST(AdmissionOffer, DuplicateLiveIdAndZeroCostAreProtocolErrors) {
  AdmissionController adm(config(8.0));
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), 3)).verdict,
            AdmissionVerdict::kAccept);
  EXPECT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kPremium), 3)).verdict,
            AdmissionVerdict::kReject);  // id 3 is live
  EXPECT_EQ(adm.level(3), DegradeLevel::kNone);  // original tenant untouched

  TenantSpec zero;  // 0x0 @ 0 fps
  EXPECT_EQ(adm.offer(to_request(zero, 4)).verdict, AdmissionVerdict::kReject);
  EXPECT_FALSE(adm.admitted(4));

  // After release the id is reusable.
  adm.release(3);
  EXPECT_FALSE(adm.admitted(3));
  EXPECT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), 3)).verdict,
            AdmissionVerdict::kAccept);
}

TEST(AdmissionOffer, HigherClassArrivalDegradesLowerClassesFirst) {
  // background + standard admitted; a premium arrival must make room by
  // walking the background tenant all the way down before touching standard.
  AdmissionController adm(config(2.1));
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kBackground), 0)).verdict,
            AdmissionVerdict::kAccept);
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), 1)).verdict,
            AdmissionVerdict::kAccept);
  const StreamReply r = adm.offer(to_request(sd_spec(PriorityClass::kPremium), 2));
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
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kPremium), 0)).verdict,
            AdmissionVerdict::kAccept);
  EXPECT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kBackground), 1)).verdict,
            AdmissionVerdict::kReject);
  EXPECT_EQ(adm.level(0), DegradeLevel::kNone);
}

TEST(AdmissionLadder, PressureDegradesLowestClassFirstRevertsMirror) {
  AdmissionController adm(config(4.0));
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kBackground), 0)).verdict,
            AdmissionVerdict::kAccept);
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kPremium), 1)).verdict,
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
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kBackground), 0)).verdict,
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
  ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kBackground), 0)).verdict,
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
    ASSERT_EQ(adm.offer(to_request(sd_spec(PriorityClass::kStandard), id)).verdict,
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
// Engine equivalence: the identical request script through direct offer()
// and through offer_wire() bytes pumped over a threaded fabric.

TEST(AdmissionWire, FabricHostedControllerMatchesDirectCalls) {
  struct Op {
    bool is_release = false;
    TenantSpec spec;
    uint8_t stream = 0;
  };
  std::vector<Op> script;
  const auto offer_op = [&](PriorityClass cls, uint8_t id) {
    script.push_back({false, sd_spec(cls), id});
  };
  offer_op(PriorityClass::kBackground, 0);
  offer_op(PriorityClass::kStandard, 1);
  offer_op(PriorityClass::kPremium, 2);   // forces degrades
  offer_op(PriorityClass::kStandard, 3);  // renegotiate or reject
  script.push_back({true, {}, 1});
  offer_op(PriorityClass::kStandard, 4);
  offer_op(PriorityClass::kStandard, 4);  // duplicate -> reject

  // Direct run.
  AdmissionController direct(config(2.1));
  std::vector<StreamReply> direct_replies;
  for (const Op& op : script) {
    if (op.is_release)
      direct.release(op.stream);
    else
      direct_replies.push_back(direct.offer(to_request(op.spec, op.stream)));
  }

  // Wire run: client on node 0, controller hosted on node 1. The host
  // answers StreamRequest with offer_wire() and treats EndOfStream as a
  // release; per-link FIFO makes the op order identical to the script.
  AdmissionController hosted(config(2.1));
  net::Fabric fabric(2);
  std::thread host([&] {
    net::Message msg;
    while (fabric.receive(1, &msg)) {
      const auto any = decode_any(msg.payload);
      ASSERT_TRUE(any.has_value());
      if (std::holds_alternative<EndOfStream>(*any)) {
        hosted.release(std::get<EndOfStream>(*any).stream);
        continue;
      }
      const Packed rep = hosted.offer_wire(msg.payload);
      net::Message out;
      out.type = int(rep.type);
      out.stream = rep.stream;
      out.payload = rep.body;
      fabric.send(1, 0, std::move(out));
    }
  });
  std::vector<StreamReply> wire_replies;
  for (const Op& op : script) {
    Packed p;
    if (op.is_release) {
      EndOfStream eos;
      eos.stream = op.stream;
      p = pack(eos);
    } else {
      p = pack(to_request(op.spec, op.stream));
    }
    net::Message msg;
    msg.type = int(p.type);
    msg.stream = p.stream;
    msg.payload = p.body;
    ASSERT_EQ(fabric.send(0, 1, std::move(msg)), net::SendStatus::kOk);
    if (op.is_release) continue;
    net::Message back;
    ASSERT_TRUE(fabric.receive(0, &back));
    StreamReply rep;
    ASSERT_TRUE(decode(back.payload.span(), &rep));
    wire_replies.push_back(rep);
  }
  fabric.shutdown();
  host.join();

  EXPECT_EQ(wire_replies, direct_replies);
  EXPECT_EQ(hosted.log(), direct.log());
  EXPECT_DOUBLE_EQ(hosted.committed_load(), direct.committed_load());
}

TEST(AdmissionWire, MalformedRequestGetsTypedReject) {
  AdmissionController adm(config(4.0));
  const size_t log_size = adm.log().size();
  const uint8_t garbage[] = {0xDE, 0xAD, 0xBE};
  const Packed rep = adm.offer_wire(mem::Bytes::copy_of(garbage));
  EXPECT_EQ(rep.type, MsgType::kStreamReply);
  StreamReply out;
  ASSERT_TRUE(decode(rep.body, &out));
  EXPECT_EQ(out.verdict, AdmissionVerdict::kReject);
  EXPECT_EQ(adm.log().size(), log_size);  // never reached the controller
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
  ASSERT_EQ(adm.offer(to_request(spec, 0)).verdict, AdmissionVerdict::kAccept);
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
