// The benchmark's own arithmetic, kept free of decoder dependencies so it can
// be tested on its own (test_wall_math.cpp):
//
//   * FrameLedger turns the engines' per-tile display callbacks into wall
//     frames. A wall frame is complete when every tile emitted its display
//     slot; its completion time is the latest of those emissions (the max
//     over tiles). Each emission is checked: a slot a tile never emitted, a
//     slot emitted twice, a degraded emission or a slot outside the stream
//     fails the frame.
//   * pass_timing() turns completion times into steady-state fps, the
//     time to first frame and the gaps between consecutive frames.
//   * percentile()/samples_beyond() give nearest-rank percentiles and the
//     number of samples that lie beyond one, so a reported percentile can be
//     held to "at least ten samples beyond it".
//   * quiet_passes() picks the passes the host left alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wallbench {

class FrameLedger {
 public:
  FrameLedger(int tiles, int frames);

  // Tile `tile` emitted display slot `slot` at `t` seconds (benchmark clock).
  void emit(int tile, int slot, bool degraded, double t);

  struct Summary {
    int attempted = 0;  // frames the stream holds
    int complete = 0;   // every tile emitted the slot at least once
    int missing = 0;    // frames some tile never emitted
    int duplicate = 0;  // frames some tile emitted more than once
    int degraded = 0;   // frames with a degraded emission
    int stray = 0;      // emissions naming a tile or slot outside the wall
    int failed = 0;     // frames with any fault above, plus stray emissions
  };
  Summary summary() const;

  // Completion time of every complete frame, in display order.
  std::vector<double> completion_times() const;

 private:
  int tiles_;
  int frames_;
  std::vector<uint8_t> count_;     // emissions per (slot, tile)
  std::vector<uint8_t> degraded_;  // per slot
  std::vector<double> done_;       // per slot: latest emission time
  int stray_ = 0;
};

struct PassTiming {
  int frames = 0;         // complete frames timed
  double fps = 0;         // (frames - 1) / (last - first completion)
  double ttff_s = 0;      // first completion since the engine call
  double last_s = 0;      // last completion since the engine call
  std::vector<double> gaps_s;  // consecutive completion intervals
};

// `completion` holds completion times (seconds since the engine call) in
// display order; at least two are needed for a rate.
PassTiming pass_timing(const std::vector<double>& completion);

// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t samples_beyond(size_t n, double p);

// Smallest sample count for which the p-th percentile has `beyond` samples
// beyond it (100 for p90 with ten beyond).
size_t samples_needed(double p, size_t beyond);

// The passes the end-to-end metrics are taken from. `steal_share` holds, per
// pass, the share of the VM's CPU time the hypervisor gave to other guests
// while the pass ran. Every pass at or below `max_share` is kept; when that
// is fewer than half of them, the least-stolen half is kept instead (the
// earlier pass first among equals). Indices come back in pass order.
std::vector<size_t> quiet_passes(const std::vector<double>& steal_share,
                                 double max_share);

}  // namespace wallbench
