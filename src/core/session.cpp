#include "core/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timing.h"
#include "mem/pool.h"

namespace pdw::core {

StreamSession::StreamSession(const wall::TileGeometry& geo, int k)
    : geo_(geo), k_(k) {}

StreamSession::~StreamSession() = default;

int StreamSession::add_stream(std::span<const uint8_t> es) {
  const int id = streams_.empty() ? 0 : streams_.rbegin()->first + 1;
  PDW_CHECK_LT(id, 256);  // the stream tag is a byte
  Slot& slot = streams_[id];
  slot.pipe = std::make_unique<LockstepPipeline>(
      geo_, k_, es, nullptr, proto::RootNode::AdaptivePartition{}, uint8_t(id));
  return id;
}

void StreamSession::enable_admission(proto::AdmissionController::Config cfg) {
  PDW_CHECK(streams_.empty());  // gate before anything attaches
  adm_ = std::make_unique<proto::AdmissionController>(cfg);
}

proto::AdmissionController::Reply StreamSession::attach_stream(
    int stream_id, std::span<const uint8_t> es,
    const proto::TenantSpec& spec) {
  PDW_CHECK(adm_ != nullptr);
  proto::AdmissionController::Reply rep;
  rep.verdict = proto::AdmissionVerdict::kReject;
  rep.level = proto::DegradeLevel::kFreeze;
  if (stream_id < 0 || stream_id > 255) return rep;
  if (streams_.count(stream_id)) return rep;  // duplicate attach
  rep = adm_->offer(uint8_t(stream_id), spec);
  if (rep.verdict == proto::AdmissionVerdict::kReject) return rep;
  Slot& slot = streams_[stream_id];
  slot.pipe = std::make_unique<LockstepPipeline>(
      geo_, k_, es, nullptr, proto::RootNode::AdaptivePartition{},
      uint8_t(stream_id));
  slot.spec = spec;
  slot.gated = true;
  return rep;
}

StreamSession::Result StreamSession::run(const DisplayFn& on_display) {
  Result r;
  r.streams = streams();
  const int max_id = streams_.empty() ? -1 : streams_.rbegin()->first;
  r.stream_pictures.assign(size_t(max_id + 1), 0);
  WallTimer timer;
  // Pool-pressure baseline: only fallbacks that happen *during* this run
  // count as backpressure (the process-global pool carries history).
  uint64_t pool_fallbacks =
      adm_ ? mem::BufferPool::wire().pressure().budget_fallbacks : 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& [id, slot] : streams_) {
      LockstepPipeline& pipe = *slot.pipe;
      if (pipe.done()) continue;
      bool shed = false;
      if (adm_ && slot.gated)
        shed = adm_->should_shed(uint8_t(id), pipe.next_picture_type(),
                                 pipe.next_gop_start());
      WallTimer step_timer;
      pipe.step(
          [&, id = id](int tile, const mpeg2::TileFrame& tf,
                       const TileDisplayInfo& info) {
            if (on_display) on_display(id, tile, tf, info);
          },
          /*on_trace=*/nullptr, shed);
      if (adm_ && slot.gated && slot.spec.fps > 0)
        adm_->deadline_check(
            uint8_t(id), step_timer.seconds() > 1.0 / double(slot.spec.fps));
      if (shed) ++r.shed;
      ++r.stream_pictures[size_t(id)];
      ++r.pictures;
      progressed = true;
      // A tenant's budget frees the moment its stream ends — mid-GOP or
      // not — so later rounds admit/revert against the true load.
      if (pipe.done() && adm_ && slot.gated) adm_->release(uint8_t(id));
    }
    if (adm_ && progressed) {
      // One backpressure reading per round (bounding ladder movement to one
      // step per round). Base signal: committed load against *raw* capacity,
      // so a merely-full wall sits in the dead band. A wire-pool budget
      // fallback during the round means memory demand outran the budget —
      // that forces the signal to the degrade threshold.
      double signal = adm_->committed_load() / adm_->config().capacity.mb_per_s;
      const mem::PoolPressure bp = mem::BufferPool::wire().pressure();
      if (bp.budget_fallbacks > pool_fallbacks)
        signal = std::max(signal, adm_->config().degrade_at);
      pool_fallbacks = bp.budget_fallbacks;
      adm_->on_pressure(signal);
    }
  }
  for (auto& [id, slot] : streams_)
    slot.pipe->finish([&, id = id](int tile, const mpeg2::TileFrame& tf,
                                   const TileDisplayInfo& info) {
      if (on_display) on_display(id, tile, tf, info);
    });
  r.wall_seconds = timer.seconds();
  r.aggregate_fps =
      r.wall_seconds > 0 ? double(r.pictures) / r.wall_seconds : 0.0;
  return r;
}

}  // namespace pdw::core
