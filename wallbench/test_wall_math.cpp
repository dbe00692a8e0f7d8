// Tests for the benchmark's own arithmetic: frame completion as the max over
// tiles, gaps and percentiles (with the ten-samples-beyond rule) and failure
// counting for missing, duplicate, degraded and stray emissions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "wall_math.h"

namespace wallbench {
namespace {

TEST(FrameLedger, CompletionIsTheLatestTileEmission) {
  FrameLedger ledger(/*tiles=*/3, /*frames=*/2);
  ledger.emit(0, 0, false, 0.010);
  ledger.emit(2, 0, false, 0.030);
  ledger.emit(1, 0, false, 0.020);
  ledger.emit(1, 1, false, 0.040);
  ledger.emit(0, 1, false, 0.055);
  ledger.emit(2, 1, false, 0.050);
  const std::vector<double> done = ledger.completion_times();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 0.030);
  EXPECT_DOUBLE_EQ(done[1], 0.055);
  const FrameLedger::Summary s = ledger.summary();
  EXPECT_EQ(s.attempted, 2);
  EXPECT_EQ(s.complete, 2);
  EXPECT_EQ(s.failed, 0);
}

TEST(FrameLedger, IncompleteFramesAreNotTimed) {
  FrameLedger ledger(2, 3);
  ledger.emit(0, 0, false, 0.1);
  ledger.emit(1, 0, false, 0.2);
  ledger.emit(0, 1, false, 0.3);  // tile 1 never shows slot 1
  ledger.emit(0, 2, false, 0.4);
  ledger.emit(1, 2, false, 0.5);
  EXPECT_EQ(ledger.completion_times(), (std::vector<double>{0.2, 0.5}));
}

TEST(FrameLedger, CountsEachFaultOncePerFrame) {
  FrameLedger ledger(2, 5);
  // slot 0: clean
  ledger.emit(0, 0, false, 0.1);
  ledger.emit(1, 0, false, 0.1);
  // slot 1: tile 1 missing
  ledger.emit(0, 1, false, 0.2);
  // slot 2: tile 0 emitted twice (three times, still one duplicate frame)
  ledger.emit(0, 2, false, 0.3);
  ledger.emit(0, 2, false, 0.3);
  ledger.emit(0, 2, false, 0.3);
  ledger.emit(1, 2, false, 0.3);
  // slot 3: degraded on both tiles
  ledger.emit(0, 3, true, 0.4);
  ledger.emit(1, 3, true, 0.4);
  // slot 4: missing on tile 0 and duplicated on tile 1 — one failed frame
  ledger.emit(1, 4, false, 0.5);
  ledger.emit(1, 4, false, 0.5);
  // stray emissions: unknown slot and unknown tile
  ledger.emit(0, 5, false, 0.6);
  ledger.emit(2, 0, false, 0.6);

  const FrameLedger::Summary s = ledger.summary();
  EXPECT_EQ(s.attempted, 5);
  EXPECT_EQ(s.complete, 3);  // slots 0, 2 and 3 were shown by every tile
  EXPECT_EQ(s.missing, 2);
  EXPECT_EQ(s.duplicate, 2);
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.stray, 2);
  EXPECT_EQ(s.failed, 4 + 2);  // slots 1..4, plus the two strays
}

TEST(PassTiming, GapsFpsAndTimeToFirstFrame) {
  const PassTiming p = pass_timing({0.125, 0.150, 0.170, 0.200, 0.225});
  EXPECT_EQ(p.frames, 5);
  EXPECT_DOUBLE_EQ(p.ttff_s, 0.125);
  EXPECT_DOUBLE_EQ(p.last_s, 0.225);
  ASSERT_EQ(p.gaps_s.size(), 4u);
  EXPECT_NEAR(p.gaps_s[0], 0.025, 1e-12);
  EXPECT_NEAR(p.gaps_s[1], 0.020, 1e-12);
  EXPECT_NEAR(p.gaps_s[2], 0.030, 1e-12);
  EXPECT_NEAR(p.gaps_s[3], 0.025, 1e-12);
  // Bring-up (the first 125 ms) is not part of the rate: 4 gaps in 100 ms.
  EXPECT_NEAR(p.fps, 40.0, 1e-9);
}

TEST(PassTiming, NeedsTwoFrames) {
  EXPECT_THROW(pass_timing({0.5}), std::invalid_argument);
  EXPECT_THROW(pass_timing({}), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 1);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower median
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondP90NeedsOneHundredGaps) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(109, 90), 10u);
  EXPECT_EQ(samples_beyond(110, 90), 11u);
  EXPECT_EQ(samples_beyond(0, 90), 0u);
  EXPECT_EQ(samples_beyond(10, 50), 5u);
  EXPECT_EQ(samples_needed(90, 10), 100u);
  EXPECT_EQ(samples_needed(50, 10), 20u);
  EXPECT_EQ(samples_needed(99, 10), 1000u);
}

TEST(QuietPasses, KeepsPassesAtOrBelowTheStealShare) {
  EXPECT_EQ(quiet_passes({0.0, 0.05, 0.01, 0.02}, 0.02),
            (std::vector<size_t>{0, 2, 3}));
  EXPECT_TRUE(quiet_passes({}, 0.02).empty());
}

TEST(QuietPasses, FallsBackToTheLeastStolenHalf) {
  // Only one of five passes is quiet: keep the three least stolen, in order.
  EXPECT_EQ(quiet_passes({0.30, 0.10, 0.01, 0.20, 0.10}, 0.02),
            (std::vector<size_t>{1, 2, 4}));
  // Ties keep the earlier pass.
  EXPECT_EQ(quiet_passes({0.5, 0.5, 0.5, 0.5}, 0.02),
            (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace wallbench
