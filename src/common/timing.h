// Wall-clock timing helpers used by the cost-measurement pass of the
// cluster simulator and by the benchmark harnesses.
#pragma once

#include <chrono>

namespace pdw {

// Monotonic stopwatch. seconds() reads elapsed time without stopping.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates elapsed time into a double while in scope. Cheap enough for
// per-picture instrumentation (two clock reads).
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(double& sink) : sink_(sink) {}
  ~ScopedAccumulator() { sink_ += timer_.seconds(); }

  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

 private:
  double& sink_;
  WallTimer timer_;
};

}  // namespace pdw
