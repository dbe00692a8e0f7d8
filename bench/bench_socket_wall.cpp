// The real-socket transport against the in-process engine: what does moving
// the 2x2 wall onto per-node UDP socket fabrics (loopback) cost, and what
// does the adaptive RTO actually observe on a real kernel path?
//
// Not a paper table — the paper's Myrinet/GM numbers assume OS-bypass
// hardware — but the deployment-shape baseline for multi-machine walls:
// throughput threaded vs socket vs socket-under-loss, plus the per-link
// RTT distribution the Jacobson/Karels estimator feeds on.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/text_table.h"
#include "core/pipeline.h"
#include "core/socket_wall.h"
#include "obs/collector.h"
#include "obs/metrics.h"

using namespace pdw;

namespace {

void merge_hist(obs::MetricsRegistry& reg, const char* family, int nodes,
                obs::Histogram* into) {
  for (int n = 0; n < nodes; ++n)
    into->merge(reg.histogram(family, obs::Labels{n, -1}));
}

}  // namespace

int main() {
  benchutil::print_banner(
      "Socket wall — UDP loopback transport vs in-process engine, 1-2-(2,2)",
      "infrastructure benchmark (no paper analogue; GM was OS-bypass)",
      "socket fps within a small factor of threaded; sub-millisecond "
      "loopback RTT; loss costs retransmissions, not correctness");

  const video::StreamSpec& spec = video::stream_by_id(1);
  const auto es = benchutil::stream(1);
  wall::TileGeometry geo(spec.width, spec.height, 2, 2, benchutil::kOverlap);
  const int k = 2;
  const int nodes = 1 + k + geo.tiles();

  core::ClusterPipeline threaded(geo, k, es);
  const core::ClusterStats t = threaded.run(nullptr);

  obs::MetricsRegistry clean_reg;
  core::SocketWallOptions so;
  so.metrics = &clean_reg;
  const core::ClusterStats s = core::run_socket_wall(geo, k, es, nullptr, so);
  obs::Histogram rtt, jitter;
  merge_hist(clean_reg, obs::family::kRttNs, nodes, &rtt);
  merge_hist(clean_reg, obs::family::kRttJitterNs, nodes, &jitter);

  obs::MetricsRegistry lossy_reg;
  net::FaultRates lossy_rates;
  lossy_rates.drop = 0.02;
  lossy_rates.delay = 0.05;
  const net::FaultInjector lossy(/*seed=*/42, lossy_rates);
  core::SocketWallOptions lo;
  lo.metrics = &lossy_reg;
  lo.injector = &lossy;
  const core::ClusterStats l = core::run_socket_wall(geo, k, es, nullptr, lo);

  // Telemetry overhead: the same wall streaming its metric/span sideband to
  // an in-process collector. The acceptance gate is sideband bytes < 1% of
  // the decode wire bytes — observability must be noise next to the video.
  obs::Collector collector;
  PDW_CHECK(collector.ok());
  collector.start();
  obs::MetricsRegistry tele_reg;
  core::SocketWallOptions to;
  to.metrics = &tele_reg;
  to.telemetry_port = collector.endpoint().port;
  to.telemetry_interval_s = 0.25;
  const core::ClusterStats tl = core::run_socket_wall(geo, k, es, nullptr, to);
  collector.stop();
  const uint64_t wire_bytes = tl.wire.traffic.total();
  const double overhead_pct =
      100.0 * double(collector.bytes_received()) / double(wire_bytes);

  TextTable table({"engine", "fps", "retransmits", "rtt p50 us", "rtt p95 us"});
  table.add_row({"threaded (in-process)", format("%.1f", t.fps),
                 format("%llu", (unsigned long long)t.ft.transport.retransmits),
                 "-", "-"});
  table.add_row({"socket (loopback)", format("%.1f", s.fps),
                 format("%llu", (unsigned long long)s.ft.transport.retransmits),
                 format("%.1f", double(rtt.p50()) / 1e3),
                 format("%.1f", double(rtt.p95()) / 1e3)});
  table.add_row({"socket + 2% loss", format("%.1f", l.fps),
                 format("%llu", (unsigned long long)l.ft.transport.retransmits),
                 "-", "-"});
  table.add_row({"socket + telemetry", format("%.1f", tl.fps),
                 format("%llu",
                        (unsigned long long)tl.ft.transport.retransmits),
                 "-", "-"});
  table.print(stdout);
  std::printf("\ntelemetry sideband: %llu bytes vs %llu wire bytes "
              "(%.3f%% overhead)\n",
              (unsigned long long)collector.bytes_received(),
              (unsigned long long)wire_bytes, overhead_pct);

  std::printf("\ncsv: engine,fps,retransmits\n");
  std::printf("csv: threaded,%.3f,%llu\n", t.fps,
              (unsigned long long)t.ft.transport.retransmits);
  std::printf("csv: socket,%.3f,%llu\n", s.fps,
              (unsigned long long)s.ft.transport.retransmits);
  std::printf("csv: socket_lossy,%.3f,%llu\n", l.fps,
              (unsigned long long)l.ft.transport.retransmits);

  benchutil::json_metric("socket_wall_fps", s.fps, "fps");
  benchutil::json_metric("socket_wall_threaded_fps", t.fps, "fps");
  benchutil::json_metric("socket_wall_lossy_fps", l.fps, "fps");
  benchutil::json_metric("socket_wall_rtt_p50_us", double(rtt.p50()) / 1e3,
                         "us");
  benchutil::json_metric("socket_wall_rtt_p95_us", double(rtt.p95()) / 1e3,
                         "us");
  benchutil::json_metric("socket_wall_rtt_p99_us", double(rtt.p99()) / 1e3,
                         "us");
  benchutil::json_metric("socket_wall_jitter_p50_us",
                         double(jitter.p50()) / 1e3, "us");
  benchutil::json_metric("socket_wall_jitter_p95_us",
                         double(jitter.p95()) / 1e3, "us");
  benchutil::json_metric("socket_wall_jitter_p99_us",
                         double(jitter.p99()) / 1e3, "us");
  benchutil::json_metric("socket_wall_lossy_retransmits",
                         double(l.ft.transport.retransmits), "count");
  benchutil::json_metric("socket_wall_telemetry_bytes",
                         double(collector.bytes_received()), "bytes");
  benchutil::json_metric("socket_wall_telemetry_overhead_pct", overhead_pct,
                         "%");
  PDW_CHECK_LT(overhead_pct, 1.0)
      << " telemetry sideband exceeded 1% of decode wire bytes";
  return 0;
}
