// The real-socket transport on the 2x2 wall: what does the adaptive RTO
// actually observe on a real kernel path (loopback), and what does the
// telemetry sideband cost next to the decode traffic?
//
// Not a paper table — the paper's Myrinet/GM numbers assume OS-bypass
// hardware — but the deployment-shape baseline for multi-machine walls: the
// per-link RTT and jitter distribution the Jacobson/Karels estimator feeds
// on. Socket-wall frame rate is measured by wallbench's orion_socket
// workload (wallbench/README.md), not here: this stream is too small for a
// stable fps.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/text_table.h"
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
      "Socket wall — UDP loopback RTT and telemetry overhead, 1-2-(2,2)",
      "infrastructure benchmark (no paper analogue; GM was OS-bypass)",
      "sub-millisecond loopback RTT; telemetry sideband < 1% of the decode "
      "wire bytes");

  const video::StreamSpec& spec = video::stream_by_id(1);
  const auto es = benchutil::stream(1);
  wall::TileGeometry geo(spec.width, spec.height, 2, 2, benchutil::kOverlap);
  const int k = 2;
  const int nodes = 1 + k + geo.tiles();

  obs::MetricsRegistry clean_reg;
  core::SocketWallOptions so;
  so.metrics = &clean_reg;
  const core::ClusterStats s = core::run_socket_wall(geo, k, es, nullptr, so);
  obs::Histogram rtt, jitter;
  merge_hist(clean_reg, obs::family::kRttNs, nodes, &rtt);
  merge_hist(clean_reg, obs::family::kRttJitterNs, nodes, &jitter);

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

  TextTable table({"socket (loopback)", "p50 us", "p95 us", "p99 us"});
  for (const auto& [name, h] :
       {std::pair{"rtt", &rtt}, std::pair{"rtt jitter", &jitter}})
    table.add_row({name, format("%.1f", double(h->p50()) / 1e3),
                   format("%.1f", double(h->p95()) / 1e3),
                   format("%.1f", double(h->p99()) / 1e3)});
  table.print(stdout);
  std::printf("retransmits: %llu clean run, %llu telemetry run\n",
              (unsigned long long)s.ft.transport.retransmits,
              (unsigned long long)tl.ft.transport.retransmits);
  std::printf("\ntelemetry sideband: %llu bytes vs %llu wire bytes "
              "(%.3f%% overhead)\n",
              (unsigned long long)collector.bytes_received(),
              (unsigned long long)wire_bytes, overhead_pct);

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
  benchutil::json_metric("socket_wall_telemetry_bytes",
                         double(collector.bytes_received()), "bytes");
  benchutil::json_metric("socket_wall_telemetry_overhead_pct", overhead_pct,
                         "%");
  PDW_CHECK_LT(overhead_pct, 1.0)
      << " telemetry sideband exceeded 1% of decode wire bytes";
  return 0;
}
