#include "proto/admission.h"

#include "common/check.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace pdw::proto {

namespace {

DegradeLevel next_down(DegradeLevel l) {
  return l == DegradeLevel::kFreeze ? l : DegradeLevel(uint8_t(l) + 1);
}

}  // namespace

AdmissionController::AdmissionController(Config cfg) : cfg_(cfg) {
  PDW_CHECK_GT(cfg_.capacity.mb_per_s, 0.0);
  PDW_CHECK_GT(cfg_.capacity.admit_headroom, 0.0);
  tenants_.resize(256);  // stream ids are a byte
}

double AdmissionController::multiplier(DegradeLevel l) const {
  switch (l) {
    case DegradeLevel::kNone: return 1.0;
    case DegradeLevel::kSkipB: return 1.0 - cfg_.b_share;
    case DegradeLevel::kSkipP: return 1.0 - cfg_.b_share - cfg_.p_share;
    case DegradeLevel::kFreeze: return 0.0;
  }
  return 1.0;
}

double AdmissionController::utilization() const {
  return committed_ / budget();
}

AdmissionController::Reply AdmissionController::offer(
    uint8_t stream, const TenantSpec& spec) {
  TenantState& t = tenants_[stream];
  Reply rep;
  const double cost = tenant_cost(spec);

  // A live duplicate id or a zero-cost declaration is a protocol error, not
  // an overload condition — always a plain reject.
  if (t.active || cost <= 0) {
    rep.verdict = AdmissionVerdict::kReject;
    rep.level = DegradeLevel::kFreeze;
    ++rejected_;
    push(Action::Kind::kOffer, stream, rep.verdict, rep.level);
    if (metrics_) {
      metrics_->counter(obs::family::kAdmissionRejected).add();
    }
    return rep;
  }

  // Make room by degrading strictly lower-priority tenants, one ladder step
  // at a time. Each step is committed (and logged) even if the offer still
  // ends in renegotiation — the wall was genuinely over budget.
  while (committed_ + cost > budget()) {
    const int victim = degrade_victim(int(spec.priority));
    if (victim < 0) break;
    apply_degrade(victim);
  }

  if (committed_ + cost <= budget()) {
    rep.verdict = AdmissionVerdict::kAccept;
    rep.level = DegradeLevel::kNone;
    ++accepted_;
  } else {
    // Renegotiate: shallowest degrade level at which the requester fits.
    rep.verdict = AdmissionVerdict::kReject;
    rep.level = DegradeLevel::kFreeze;
    for (auto l : {DegradeLevel::kSkipB, DegradeLevel::kSkipP}) {
      if (committed_ + cost * multiplier(l) <= budget()) {
        rep.verdict = AdmissionVerdict::kRenegotiate;
        rep.level = l;
        break;
      }
    }
    if (rep.verdict == AdmissionVerdict::kRenegotiate)
      ++renegotiated_;
    else
      ++rejected_;
  }

  if (rep.verdict != AdmissionVerdict::kReject) {
    t = TenantState{};
    t.spec = spec;
    t.active = true;
    t.level = t.target = rep.level;
    committed_ += effective_cost(t);
  }
  push(Action::Kind::kOffer, stream, rep.verdict, rep.level);
  if (metrics_) {
    const char* fam = rep.verdict == AdmissionVerdict::kAccept
                          ? obs::family::kAdmissionAccepted
                      : rep.verdict == AdmissionVerdict::kRenegotiate
                          ? obs::family::kAdmissionRenegotiated
                          : obs::family::kAdmissionRejected;
    metrics_->counter(fam).add();
    mirror_tenant(stream);
  }
  return rep;
}

void AdmissionController::release(uint8_t stream) {
  TenantState& t = tenants_[stream];
  if (!t.active) return;  // releasing a never-admitted stream is a no-op
  committed_ -= effective_cost(t);
  if (committed_ < 0) committed_ = 0;  // float dust
  t.active = false;
  push(Action::Kind::kRelease, stream, AdmissionVerdict::kAccept, t.level);
  if (metrics_) mirror_tenant(stream);
}

void AdmissionController::on_pressure(double signal) {
  if (signal >= cfg_.degrade_at) {
    const int victim = degrade_victim(/*below_priority=*/3);
    if (victim >= 0) apply_degrade(victim);
    return;
  }
  if (signal <= cfg_.revert_at) {
    const int stream = revert_candidate();
    if (stream < 0) return;
    TenantState& t = tenants_[size_t(stream)];
    // Check the revert actually fits before arming it; the armed target is
    // priced into committed_ now so successive on_pressure() calls see the
    // load the wall is heading toward, not the transiently-degraded one.
    const double delta =
        tenant_cost(t.spec) *
        (multiplier(DegradeLevel(uint8_t(t.target) - 1)) - multiplier(t.target));
    if (committed_ + delta > budget()) return;
    t.target = DegradeLevel(uint8_t(t.target) - 1);
    committed_ += delta;
    push(Action::Kind::kArmRevert, uint8_t(stream), AdmissionVerdict::kAccept,
         t.target);
  }
}

bool AdmissionController::should_shed(uint8_t stream, mpeg2::PicType type,
                                      bool closed_gop) {
  TenantState& t = tenants_[stream];
  if (!t.active) return false;
  if (closed_gop && t.target < t.level) {
    // Bit-exact resync point: nothing before this picture is referenced
    // again, so the armed revert lands here.
    t.level = t.target;
    push(Action::Kind::kRevert, stream, AdmissionVerdict::kAccept, t.level);
    if (metrics_) mirror_tenant(stream);
  }
  ++t.pictures;
  bool shed = false;
  switch (t.level) {
    case DegradeLevel::kNone: break;
    case DegradeLevel::kSkipB: shed = type == mpeg2::PicType::B; break;
    case DegradeLevel::kSkipP: shed = type != mpeg2::PicType::I; break;
    case DegradeLevel::kFreeze: shed = true; break;
  }
  if (shed) {
    ++t.shed;
    if (metrics_)
      metrics_->counter(obs::family::kTenantPicturesShed, {.stream = stream})
          .add();
  }
  return shed;
}

void AdmissionController::deadline_check(uint8_t stream, bool missed) {
  TenantState& t = tenants_[stream];
  ++t.deadline_checks;
  if (missed) ++t.deadline_misses;
  if (metrics_) {
    metrics_->counter(obs::family::kTenantDeadlineChecks, {.stream = stream})
        .add();
    if (missed)
      metrics_->counter(obs::family::kTenantDeadlineMisses, {.stream = stream})
          .add();
  }
}

bool AdmissionController::admitted(uint8_t stream) const {
  return tenants_[stream].active;
}

DegradeLevel AdmissionController::level(uint8_t stream) const {
  return tenants_[stream].level;
}

const AdmissionController::TenantState* AdmissionController::tenant(
    uint8_t stream) const {
  const TenantState& t = tenants_[stream];
  return t.active ? &t : nullptr;
}

int AdmissionController::degrade_victim(int below_priority) const {
  int best = -1;
  for (int i = 255; i >= 0; --i) {
    const TenantState& t = tenants_[size_t(i)];
    if (!t.active || int(t.spec.priority) >= below_priority) continue;
    if (t.target == DegradeLevel::kFreeze) continue;  // nothing left to shed
    if (best < 0) {
      best = i;
      continue;
    }
    const TenantState& b = tenants_[size_t(best)];
    // Lowest class first; within a class spread the pain (least-degraded
    // target first); ties: highest stream id (the downward loop saw it
    // first, so keeping `best` preserves newest-first).
    if (t.spec.priority < b.spec.priority ||
        (t.spec.priority == b.spec.priority && t.target < b.target))
      best = i;
  }
  return best;
}

int AdmissionController::revert_candidate() const {
  int best = -1;
  for (int i = 0; i < 256; ++i) {
    const TenantState& t = tenants_[size_t(i)];
    if (!t.active || t.target == DegradeLevel::kNone) continue;
    if (best < 0) {
      best = i;
      continue;
    }
    const TenantState& b = tenants_[size_t(best)];
    // Mirror of degrade_victim: highest class recovers first, most-degraded
    // within the class first, oldest stream first.
    if (t.spec.priority > b.spec.priority ||
        (t.spec.priority == b.spec.priority && t.target > b.target))
      best = i;
  }
  return best;
}

void AdmissionController::apply_degrade(int stream) {
  TenantState& t = tenants_[size_t(stream)];
  committed_ -= effective_cost(t);
  // Degrading is always safe to apply immediately (a skipped picture is a
  // skip-broadcast, which the display machinery already handles), and a
  // deeper target cancels any armed revert.
  t.level = t.target = next_down(t.target);
  committed_ += effective_cost(t);
  push(Action::Kind::kDegrade, uint8_t(stream), AdmissionVerdict::kAccept,
       t.level);
  if (metrics_) mirror_tenant(uint8_t(stream));
}

void AdmissionController::push(Action::Kind kind, uint8_t stream,
                               AdmissionVerdict verdict, DegradeLevel level) {
  Action a;
  a.kind = kind;
  a.stream = stream;
  a.verdict = verdict;
  a.level = level;
  log_.push_back(a);
  // Ladder transitions are flight-recorder triggers: a degrade (or its
  // revert) is exactly the moment a post-mortem wants the preceding wire
  // and span history for.
  switch (kind) {
    case Action::Kind::kDegrade:
      obs::FlightRecorder::global().dump("ladder_degrade");
      break;
    case Action::Kind::kArmRevert:
      obs::FlightRecorder::global().dump("ladder_arm_revert");
      break;
    case Action::Kind::kRevert:
      obs::FlightRecorder::global().dump("ladder_revert");
      break;
    default:
      break;
  }
}

void AdmissionController::mirror_tenant(uint8_t stream) {
  const TenantState& t = tenants_[stream];
  const obs::Labels labels{.stream = stream};
  metrics_->gauge(obs::family::kTenantAdmitted, labels).set(t.active ? 1 : 0);
  metrics_->gauge(obs::family::kTenantPriorityClass, labels)
      .set(int64_t(t.spec.priority));
  metrics_->gauge(obs::family::kTenantDegradeLevel, labels)
      .set(int64_t(t.level));
}

}  // namespace pdw::proto
