// Unit tests for the telemetry layer (obs/): histogram bucket arithmetic,
// percentile accessors, shard merging, registry snapshots, the span tracer's
// per-thread rings, and the Chrome-trace / JSON exporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket boundaries.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket 0 holds exactly {0}; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index(1023), 10);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_index(uint64_t(1) << 63), 64);
  EXPECT_EQ(Histogram::bucket_index(~uint64_t(0)), 64);
}

TEST(Histogram, BucketLowerIsInverseOfIndexAtPowersOfTwo) {
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const uint64_t lo = Histogram::bucket_lower(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "bucket " << i;
  }
}

TEST(Histogram, PowersOfTwoReportExactly) {
  // A power of two is the lower edge of its bucket, so percentile() (which
  // reports lower edges) returns such samples exactly.
  Histogram h;
  h.observe(8);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 8u);
  EXPECT_EQ(h.p50(), 8u);
  EXPECT_EQ(h.p95(), 8u);
  EXPECT_EQ(h.p99(), 8u);
}

TEST(Histogram, EmptyHistogramReportsZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.percentile(100), 0u);
}

TEST(Histogram, PercentilePicksCorrectSample) {
  // 100 samples: 1..100. percentile(p) returns the lower bucket edge of the
  // ceil(p)-th sample.
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  // The 50th sample is 50, in bucket [32, 64).
  EXPECT_EQ(h.p50(), 32u);
  // The 95th sample is 95, in bucket [64, 128).
  EXPECT_EQ(h.p95(), 64u);
  // p=0 clamps to the first sample's bucket: 1 -> [1, 2).
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 64u);
}

TEST(Histogram, ZeroSamplesLandInBucketZero) {
  Histogram h;
  h.observe(0);
  h.observe(0);
  h.observe(1);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.p50(), 0u);      // 2nd of 3 samples is still a zero
  EXPECT_EQ(h.percentile(100), 1u);
}

TEST(Histogram, MergeAccumulatesShards) {
  // Per-thread shards combine bucket-wise; percentiles over the merged
  // histogram equal those of one histogram fed every sample.
  Histogram a, b, whole;
  for (uint64_t v = 1; v <= 50; ++v) {
    a.observe(v);
    whole.observe(v);
  }
  for (uint64_t v = 51; v <= 100; ++v) {
    b.observe(v);
    whole.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.sum(), whole.sum());
  for (int i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(a.bucket(i), whole.bucket(i)) << "bucket " << i;
  EXPECT_EQ(a.p50(), whole.p50());
  EXPECT_EQ(a.p95(), whole.p95());
  EXPECT_EQ(a.p99(), whole.p99());
}

// ---------------------------------------------------------------------------
// Registry: resolution, labels, snapshot.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, LabelsSeparateInstruments) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("pics", {.node = 1, .stream = 0});
  Counter& c2 = reg.counter("pics", {.node = 2, .stream = 0});
  EXPECT_NE(&c1, &c2);
  // Resolving again returns the same instrument.
  EXPECT_EQ(&reg.counter("pics", {.node = 1, .stream = 0}), &c1);
  c1.add(3);
  c2.add(4);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("pics", {.node = 1, .stream = 0}), 3u);
  EXPECT_EQ(snap.counter_value("pics", {.node = 2, .stream = 0}), 4u);
  EXPECT_EQ(snap.counter_value("pics", {.node = 9, .stream = 0}), 0u);
  EXPECT_EQ(snap.counter_total("pics"), 7u);
  EXPECT_EQ(snap.counter_total("absent"), 0u);
}

TEST(MetricsRegistry, SnapshotCarriesAllKinds) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(-7);
  Histogram& h = reg.histogram("h");
  h.observe(16);
  h.observe(16);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.values.size(), 3u);
  bool saw_gauge = false, saw_hist = false;
  for (const MetricValue& v : snap.values) {
    if (v.family == "g") {
      saw_gauge = true;
      EXPECT_EQ(v.kind, MetricKind::kGauge);
      EXPECT_EQ(v.gauge, -7);
    }
    if (v.family == "h") {
      saw_hist = true;
      EXPECT_EQ(v.kind, MetricKind::kHistogram);
      EXPECT_EQ(v.count, 2u);
      EXPECT_EQ(v.sum, 32u);
      EXPECT_EQ(v.p50, 16u);
      ASSERT_EQ(v.buckets.size(), 1u);
      EXPECT_EQ(v.buckets[0], (std::pair<uint64_t, uint64_t>{16, 2}));
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(MetricsRegistry, ResetValuesKeepsInstrumentsValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(9);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // previously resolved reference still works
  EXPECT_EQ(reg.snapshot().counter_total("c"), 1u);
}

// ---------------------------------------------------------------------------
// Tracer: per-thread rings, multi-thread merge, virtual-time spans.
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  t.record("x", 1, 0, 10);
  { Span s("scoped", 1); }
  EXPECT_TRUE(t.collect().empty());
}

TEST(Tracer, CollectMergesThreadsSortedByStart) {
  // Real-time record() stamps the recording thread's ring tid; events from
  // different threads merge into one timeline sorted by start.
  Tracer t;
  t.enable(1024);
  t.record("late", 1, /*start_ns=*/2000, /*dur_ns=*/500, 7);
  std::thread other([&] { t.record("early", 2, /*start_ns=*/1000, 250); });
  other.join();
  t.disable();

  const auto events = t.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_EQ(events[0].pid, 2);
  EXPECT_EQ(events[0].ts_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 250u);
  EXPECT_STREQ(events[1].name, "late");
  EXPECT_EQ(events[1].arg_pic, 7u);
  // Threads got distinct tids.
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, AddCompleteKeepsCallerLane) {
  // Virtual-time spans (the DES) name their own execution lane: the tid is
  // the caller's, not the recording thread's.
  Tracer t;
  t.enable(64);
  t.add_complete("a", 1, /*tid=*/3, 0.0, 1.0);
  t.add_complete("b", 1, /*tid=*/4, 1.0, 1.0);
  t.disable();
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, 3);
  EXPECT_EQ(events[1].tid, 4);
}

TEST(Tracer, RingWrapDropsOldestAndCounts) {
  Tracer t;
  // enable() clamps the per-thread capacity to a floor of 16 events.
  t.enable(/*capacity_per_thread=*/16);
  for (int i = 0; i < 20; ++i)
    t.add_complete("e", 0, 0, double(i), 0.5, uint32_t(i));
  t.disable();
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 16u);  // ring keeps the newest 16
  EXPECT_EQ(events.front().arg_pic, 4u);
  EXPECT_EQ(events.back().arg_pic, 19u);
  EXPECT_EQ(t.dropped(), 4u);
}

TEST(Tracer, AggregateSumsPerNamePid) {
  Tracer t;
  t.enable(64);
  t.add_complete("work", 3, 0, 0.0, 1.0);
  t.add_complete("work", 3, 0, 2.0, 0.5);
  t.add_complete("work", 4, 0, 0.0, 0.25);
  t.instant("mark", 3);  // instants excluded from aggregation
  t.disable();
  const auto agg = t.aggregate();
  const auto w3 = agg.at({"work", 3});
  EXPECT_EQ(w3.count, 2u);
  EXPECT_EQ(w3.total_ns, uint64_t(1.5e9));
  EXPECT_EQ(agg.at({"work", 4}).count, 1u);
  EXPECT_EQ(agg.count({"mark", 3}), 0u);
}

TEST(Tracer, EnableResetsPreviousRun) {
  Tracer t;
  t.enable(64);
  t.add_complete("a", 0, 0, 0.0, 1.0);
  t.disable();
  t.enable(64);
  t.add_complete("b", 0, 0, 0.0, 1.0);
  t.disable();
  const auto events = t.collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "b");
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Export, ChromeTraceContainsSpansAndMetadata) {
  Tracer t;
  t.enable(64);
  t.add_complete(span::kDecodeSp, 5, 1, 1.0, 0.5, 3);
  t.instant(span::kRetransmit, 5, 9);
  t.disable();

  const std::string path = ::testing::TempDir() + "/pdw_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(t, path, [](int pid) {
    return "node" + std::to_string(pid);
  }));
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"decode_sp\""), std::string::npos);
  EXPECT_NE(json.find("\"retransmit\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("node5"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, MetricsJsonRoundsTripFamilies) {
  MetricsRegistry reg;
  reg.counter(family::kPicturesDecoded, {.node = 3, .stream = 0}).add(12);
  reg.histogram(family::kDecodeNs, {.node = 3, .stream = 0}).observe(1024);
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_NE(json.find("\"pictures_decoded\""), std::string::npos);
  EXPECT_NE(json.find("\"decode_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":3"), std::string::npos);
  EXPECT_NE(json.find("12"), std::string::npos);
}

TEST(Export, Fig7BreakdownNormalizesShares) {
  Tracer t;
  t.enable(64);
  const int pid = 100;
  t.add_complete(span::kDecodeSp, pid, 0, 0.0, 0.6);
  t.add_complete(span::kServeSp, pid, 0, 0.6, 0.2);
  t.add_complete(span::kRecvSp, pid, 0, 0.8, 0.1);
  t.add_complete(span::kWaitHalo, pid, 0, 0.9, 0.05);
  t.add_complete(span::kAckPic, pid, 0, 0.95, 0.05);
  t.add_complete(span::kDecodeSp, pid + 5, 0, 0.0, 1.0);  // outside range
  // Row bands inside decode_sp, on two threads: already counted as Work.
  t.add_complete(span::kDecodeBand, pid, 0, 0.0, 0.3);
  t.add_complete(span::kDecodeBand, pid, 1, 0.0, 0.3);
  t.disable();

  const auto shares = fig7_breakdown(t, pid, pid);
  ASSERT_EQ(shares.size(), 1u);
  const StageShare& s = shares.at(pid);
  EXPECT_NEAR(s.work, 0.6, 1e-9);
  EXPECT_NEAR(s.serve, 0.2, 1e-9);
  EXPECT_NEAR(s.receive, 0.1, 1e-9);
  EXPECT_NEAR(s.wait, 0.05, 1e-9);
  EXPECT_NEAR(s.ack, 0.05, 1e-9);
  EXPECT_NEAR(s.work + s.serve + s.receive + s.wait + s.ack, 1.0, 1e-9);
  EXPECT_EQ(s.total_ns, uint64_t(1e9));
}

}  // namespace
}  // namespace pdw::obs
