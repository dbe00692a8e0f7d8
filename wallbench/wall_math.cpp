#include "wall_math.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace wallbench {

FrameLedger::FrameLedger(int tiles, int frames)
    : tiles_(tiles),
      frames_(frames),
      count_(size_t(tiles) * size_t(frames), 0),
      degraded_(size_t(frames), 0),
      done_(size_t(frames), 0.0) {}

void FrameLedger::emit(int tile, int slot, bool degraded, double t) {
  if (tile < 0 || tile >= tiles_ || slot < 0 || slot >= frames_) {
    ++stray_;
    return;
  }
  uint8_t& c = count_[size_t(slot) * size_t(tiles_) + size_t(tile)];
  if (c < 255) ++c;
  if (degraded) degraded_[size_t(slot)] = 1;
  done_[size_t(slot)] = std::max(done_[size_t(slot)], t);
}

FrameLedger::Summary FrameLedger::summary() const {
  Summary s;
  s.attempted = frames_;
  s.stray = stray_;
  for (int f = 0; f < frames_; ++f) {
    bool missing = false, duplicate = false;
    for (int t = 0; t < tiles_; ++t) {
      const uint8_t c = count_[size_t(f) * size_t(tiles_) + size_t(t)];
      missing |= c == 0;
      duplicate |= c > 1;
    }
    const bool degraded = degraded_[size_t(f)] != 0;
    s.complete += !missing;
    s.missing += missing;
    s.duplicate += duplicate;
    s.degraded += degraded;
    s.failed += missing || duplicate || degraded;
  }
  s.failed += stray_;
  return s;
}

std::vector<double> FrameLedger::completion_times() const {
  std::vector<double> out;
  for (int f = 0; f < frames_; ++f) {
    bool complete = true;
    for (int t = 0; t < tiles_ && complete; ++t)
      complete = count_[size_t(f) * size_t(tiles_) + size_t(t)] != 0;
    if (complete) out.push_back(done_[size_t(f)]);
  }
  return out;
}

PassTiming pass_timing(const std::vector<double>& completion) {
  if (completion.size() < 2)
    throw std::invalid_argument("pass_timing needs two complete frames");
  PassTiming p;
  p.frames = int(completion.size());
  p.ttff_s = completion.front();
  p.last_s = completion.back();
  for (size_t i = 1; i < completion.size(); ++i)
    p.gaps_s.push_back(completion[i] - completion[i - 1]);
  const double span = p.last_s - p.ttff_s;
  p.fps = span > 0 ? double(p.frames - 1) / span : 0.0;
  return p;
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples. p * n is formed
// first so that exact products (90 * 100) are not nudged up by rounding.
size_t nearest_rank(size_t n, double p) {
  const double r = std::ceil(p * double(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(size_t(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty() || !(p > 0 && p <= 100))
    throw std::invalid_argument("percentile of an empty sample or bad p");
  const size_t idx = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

size_t samples_beyond(size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

size_t samples_needed(double p, size_t beyond) {
  size_t n = 1;
  while (samples_beyond(n, p) < beyond) ++n;
  return n;
}

std::vector<size_t> quiet_passes(const std::vector<double>& steal_share,
                                 double max_share) {
  std::vector<size_t> keep;
  for (size_t i = 0; i < steal_share.size(); ++i)
    if (steal_share[i] <= max_share) keep.push_back(i);
  const size_t half = (steal_share.size() + 1) / 2;
  if (keep.size() >= half) return keep;
  std::vector<size_t> order(steal_share.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_share[a] < steal_share[b];
  });
  order.resize(half);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace wallbench
