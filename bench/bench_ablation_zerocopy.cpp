// Ablation (paper §4.4): pooled buffers vs per-message heap allocation,
// measured on the real threaded pipeline — not modeled.
//
// With GM's posted receive buffers and the two-buffer ack protocol, neither
// sender nor receiver copies message payloads. This codebase's analog is the
// mem::Bytes subsystem: one pooled allocation per picture body, with the
// splitter's sub-picture payloads, the packed SpMsg bodies and the decoder's
// run payloads all refcounted views over pooled blocks. The "static" leg
// turns pooling off (every wire body and surface is a fresh heap malloc,
// freed to the heap); the "pooled" leg runs the same protocol with the
// freelists on. Both legs share views the same way, run the full threaded
// ClusterPipeline after warm-up passes, and are interleaved so host-load
// drift lands on both sides, so the fps delta is alloc elimination.
//
// The pooled leg also reports the PR's acceptance gate: steady-state pool
// misses per picture (each miss is one hot-path malloc) — must be 0.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/text_table.h"
#include "core/pipeline.h"
#include "mem/pool.h"
#include "obs/metrics.h"

using namespace pdw;

namespace {

struct Leg {
  double fps = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  int pictures = 0;
  double allocs_per_pic = 0;
  uint64_t p99_split_ns = 0;
  uint64_t p99_decode_ns = 0;
};

struct Pair {
  Leg stat, pool;
};

// Histogram bucket totals (lower bound -> count) for one family, summed
// across all node labels. Differences of two collections give a per-leg
// latency distribution at the registry's log2 bucket resolution.
using Buckets = std::map<uint64_t, uint64_t>;

Buckets family_buckets(const char* family) {
  Buckets out;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const obs::MetricValue& v : snap.values)
    if (v.kind == obs::MetricKind::kHistogram && v.family == family)
      for (const auto& [lo, n] : v.buckets) out[lo] += n;
  return out;
}

void add_delta(const Buckets& before, const Buckets& after, Buckets* into) {
  for (const auto& [lo, n] : after) {
    const auto it = before.find(lo);
    const uint64_t prev = it == before.end() ? 0 : it->second;
    if (n > prev) (*into)[lo] += n - prev;
  }
}

uint64_t p99_of(const Buckets& buckets) {
  uint64_t total = 0;
  for (const auto& [lo, n] : buckets) total += n;
  if (total == 0) return 0;
  const uint64_t target = (total * 99 + 99) / 100;
  uint64_t seen = 0;
  for (const auto& [lo, n] : buckets) {
    seen += n;
    if (seen >= target) return lo;
  }
  return buckets.rbegin()->first;
}

double timed_run(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
                 int k, int* pictures) {
  core::ClusterPipeline pipeline(geo, k, es);
  const core::ClusterStats stats = pipeline.run(nullptr);
  if (pictures) *pictures += stats.pictures;
  return stats.fps;
}

Pair run_pair(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
              int k) {
  // Interleaved best-of-N: single threaded-pipeline runs jitter by double
  // digits on a shared host, and back-to-back legs let slow load drift
  // land entirely on one side. Alternating static/pooled runs exposes both
  // legs to the same drift; best-of-N then picks each leg's least-perturbed
  // run. The miss gate spans ALL pooled timed runs — every steady-state
  // pass must be alloc-free, not just the fastest.
  constexpr int kReps = 5;
  Pair pair;
  Buckets stat_split, stat_decode, pool_split, pool_decode;

  // One warm-up pass per mode: the pooled pass mints the working set, the
  // static pass just pages everything in so both legs measure warm.
  mem::set_pooling_enabled(false);
  timed_run(es, geo, k, nullptr);
  mem::set_pooling_enabled(true);
  timed_run(es, geo, k, nullptr);

  const auto run_one = [&](Leg* leg, Buckets* split, Buckets* decode) {
    const uint64_t miss0 = mem::BufferPool::wire().stats().misses +
                           mem::SurfacePool::global().stats().misses;
    const uint64_t hit0 = mem::BufferPool::wire().stats().hits +
                          mem::SurfacePool::global().stats().hits;
    const Buckets split0 = family_buckets(obs::family::kSplitNs);
    const Buckets decode0 = family_buckets(obs::family::kDecodeNs);
    leg->fps = std::max(leg->fps, timed_run(es, geo, k, &leg->pictures));
    leg->misses += mem::BufferPool::wire().stats().misses +
                   mem::SurfacePool::global().stats().misses - miss0;
    leg->hits += mem::BufferPool::wire().stats().hits +
                 mem::SurfacePool::global().stats().hits - hit0;
    add_delta(split0, family_buckets(obs::family::kSplitNs), split);
    add_delta(decode0, family_buckets(obs::family::kDecodeNs), decode);
  };

  for (int rep = 0; rep < kReps; ++rep) {
    // Static leg: with pooling off every alloc is a heap miss by design,
    // so its miss count is the per-picture alloc-stall count of unpooled
    // messaging. Snapshotting per leg keeps it out of the pooled leg's
    // gate counters.
    mem::set_pooling_enabled(false);
    run_one(&pair.stat, &stat_split, &stat_decode);

    mem::set_pooling_enabled(true);
    run_one(&pair.pool, &pool_split, &pool_decode);
  }
  pair.stat.allocs_per_pic =
      double(pair.stat.misses) / double(pair.stat.pictures);
  pair.pool.allocs_per_pic =
      double(pair.pool.misses) / double(pair.pool.pictures);
  pair.stat.p99_split_ns = p99_of(stat_split);
  pair.stat.p99_decode_ns = p99_of(stat_decode);
  pair.pool.p99_split_ns = p99_of(pool_split);
  pair.pool.p99_decode_ns = p99_of(pool_decode);
  return pair;
}

}  // namespace

int main() {
  benchutil::print_banner(
      "Ablation — pooled zero-copy buffers vs per-message heap allocation",
      "IPDPS'02 paper, Section 4.4 / Figure 5",
      "posted receive buffers remove per-message copies; pooled refcounted "
      "bodies remove per-message mallocs — steady state runs alloc-free");

  TextTable table({"stream", "config", "fps static", "fps pooled", "speedup",
                   "hit rate", "steady miss/pic"});
  TextTable stalls({"stream", "allocs/pic static", "allocs/pic pooled",
                    "p99 split static", "p99 split pooled", "p99 decode static",
                    "p99 decode pooled"});
  for (int id : {10, 16}) {  // nbc @ 2x2, orion4 @ 4x4
    const video::StreamSpec& spec = video::stream_by_id(id);
    const auto es = benchutil::stream(id);
    wall::TileGeometry geo(spec.width, spec.height, spec.tiles_m, spec.tiles_n,
                           benchutil::kOverlap);
    const int k = 2;

    const Pair pair = run_pair(es, geo, k);
    const Leg& stat = pair.stat;
    const Leg& pool = pair.pool;
    const double hit_rate =
        pool.hits + pool.misses
            ? double(pool.hits) / double(pool.hits + pool.misses)
            : 0.0;

    table.add_row({spec.name,
                   benchutil::config_name(k, spec.tiles_m, spec.tiles_n, true),
                   format("%.2f", stat.fps), format("%.2f", pool.fps),
                   format("%.2fx", pool.fps / stat.fps),
                   format("%.1f%%", hit_rate * 100),
                   format("%.2f", pool.allocs_per_pic)});
    stalls.add_row({spec.name, format("%.1f", stat.allocs_per_pic),
                    format("%.2f", pool.allocs_per_pic),
                    format("%.1f ms", double(stat.p99_split_ns) / 1e6),
                    format("%.1f ms", double(pool.p99_split_ns) / 1e6),
                    format("%.1f ms", double(stat.p99_decode_ns) / 1e6),
                    format("%.1f ms", double(pool.p99_decode_ns) / 1e6)});
    benchutil::json_metric(
        format("ablation_zerocopy_%s_fps_static", spec.name.c_str()), stat.fps,
        "fps");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_fps_pooled", spec.name.c_str()), pool.fps,
        "fps");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_speedup", spec.name.c_str()),
        pool.fps / stat.fps, "x");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_pool_hit_rate", spec.name.c_str()),
        hit_rate, "ratio");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_steady_misses_per_pic",
               spec.name.c_str()),
        pool.allocs_per_pic, "allocs/pic");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_allocs_per_pic_static",
               spec.name.c_str()),
        stat.allocs_per_pic, "allocs/pic");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_p99_decode_ms_static", spec.name.c_str()),
        double(stat.p99_decode_ns) / 1e6, "ms");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_p99_decode_ms_pooled", spec.name.c_str()),
        double(pool.p99_decode_ns) / 1e6, "ms");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_p99_split_ms_static", spec.name.c_str()),
        double(stat.p99_split_ns) / 1e6, "ms");
    benchutil::json_metric(
        format("ablation_zerocopy_%s_p99_split_ms_pooled", spec.name.c_str()),
        double(pool.p99_split_ns) / 1e6, "ms");
  }
  table.print(stdout);
  std::printf(
      "\n(The static leg heap-allocates every wire body and surface; the "
      "pooled leg serves the steady "
      "state entirely from freelists — the miss/pic column is the "
      "machine-checked \"zero hot-path mallocs\" gate.)\n");
  std::printf("\nAlloc stalls & tail latency (p99 at log2 bucket "
              "resolution):\n");
  stalls.print(stdout);
  std::printf("\nCSV:\n");
  table.print_csv(stdout);
  return 0;
}
