// Figure 9: send and receive bandwidth of each node, 1-4-(4,4), stream 16.
//
// The paper measures per-node network bandwidth while decoding the highest-
// resolution Orion stream on a 4x4 wall with 4 second-level splitters and
// shows that (a) the requirement is low (a few MB/s/node, well within
// commodity networks), (b) it is balanced across decoders even though the
// stream's detail is localized, and (c) a splitter's send bandwidth exceeds
// its receive bandwidth by ~20% — the SPH framing overhead.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "core/config.h"

using namespace pdw;

int main() {
  benchutil::print_banner(
      "Figure 9 — Per-Node Send/Receive Bandwidth, 1-4-(4,4), stream 16",
      "IPDPS'02 paper, Figure 9 (Section 5.6)",
      "low and balanced bandwidth across decoders; splitter send ~= 1.2x "
      "receive (SPH overhead ~20%)");

  const video::StreamSpec& spec = video::stream_by_id(16);
  const auto es = benchutil::stream(16);
  wall::TileGeometry geo(spec.width, spec.height, 4, 4, benchutil::kOverlap);
  const auto traces = benchutil::collect_traces(es, geo);

  sim::SimParams p;
  p.two_level = true;
  p.k = 4;  // the paper's 1-4-(4,4), 21 nodes total
  p.link = benchutil::default_link();
  const auto r = sim::simulate_cluster(traces, geo, p);

  TextTable table({"node", "role", "send MB/s", "recv MB/s"});
  RunningStat dec_send, dec_recv;
  double splitter_send = 0, splitter_recv = 0;
  for (int nid = 0; nid < r.nodes; ++nid) {
    std::string role;
    if (nid == 0)
      role = "root";
    else if (nid < 1 + p.k)
      role = format("splitter %d", nid - 1);
    else
      role = format("decoder %d", nid - 1 - p.k);
    const double s = r.send_bandwidth_Bps(nid) / 1e6;
    const double v = r.recv_bandwidth_Bps(nid) / 1e6;
    if (nid >= 1 + p.k) {
      dec_send.add(s);
      dec_recv.add(v);
    } else if (nid >= 1) {
      splitter_send += s;
      splitter_recv += v;
    }
    table.add_row({format("%d", nid), role, format("%.2f", s),
                   format("%.2f", v)});
  }
  table.print(stdout);

  std::printf("\nfps = %.1f  (playing %dx%d on 21 nodes)\n", r.fps,
              spec.width, spec.height);
  std::printf("decoder send: mean %.2f MB/s (min %.2f, max %.2f)\n",
              dec_send.mean(), dec_send.min(), dec_send.max());
  std::printf("decoder recv: mean %.2f MB/s (min %.2f, max %.2f)\n",
              dec_recv.mean(), dec_recv.min(), dec_recv.max());
  std::printf("splitter send/recv ratio = %.2f (SPH overhead %.0f%%)\n",
              splitter_send / splitter_recv,
              100.0 * (splitter_send / splitter_recv - 1.0));

  // The full node x node byte matrix behind the bandwidth figures.
  auto node_name = [&](int nid) {
    if (nid == 0) return std::string("root");
    std::string name = nid < 1 + p.k ? "S" : "D";
    name += std::to_string(nid);
    return name;
  };
  std::printf("\nnode x node traffic matrix:\n");
  r.traffic_matrix.to_table(node_name).print(stdout);

  benchutil::json_metric("fig9_fps", r.fps, "fps");
  benchutil::json_metric("fig9_decoder_send_mean", dec_send.mean(), "MB/s");
  benchutil::json_metric("fig9_splitter_send_recv_ratio",
                         splitter_send / splitter_recv, "ratio");
  std::printf("\nCSV:\n");
  table.print_csv(stdout);
  return 0;
}
