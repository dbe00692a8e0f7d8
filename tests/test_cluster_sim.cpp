// Cluster simulator tests: protocol model consistency with the paper's §4.6
// frame-rate formula, monotonicity, breakdown/traffic invariants.
#include <gtest/gtest.h>

#include "core/config.h"
#include "sim/cluster_sim.h"

namespace pdw::sim {
namespace {

using core::PictureTrace;

// Synthetic traces: uniform pictures with given split/decode costs.
std::vector<PictureTrace> uniform_traces(int n, int tiles, double split_s,
                                         double decode_s,
                                         size_t picture_bytes = 50000,
                                         size_t sp_bytes = 15000,
                                         size_t exchange_bytes = 0) {
  std::vector<PictureTrace> traces(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PictureTrace& tr = traces[size_t(i)];
    tr.pic_index = uint32_t(i);
    tr.picture_bytes = picture_bytes;
    tr.copy_s = 20e-6;
    tr.split_s = split_s;
    tr.splitter = 0;
    tr.sp_msg_bytes.assign(size_t(tiles), sp_bytes);
    tr.decode_s.assign(size_t(tiles), decode_s);
    tr.serve_s.assign(size_t(tiles), exchange_bytes ? 50e-6 : 0.0);
    tr.halo_mbs.assign(size_t(tiles), 0);
    tr.exchange_bytes.reset(tiles);
    if (exchange_bytes && tiles > 1 && i % 3 != 0) {
      // Ring exchange between adjacent tiles on P/B pictures.
      for (int t = 0; t < tiles; ++t)
        tr.exchange_bytes.at(t, (t + 1) % tiles) = exchange_bytes;
    }
  }
  return traces;
}

SimParams fast_net_params(int k, bool two_level = true) {
  SimParams p;
  p.k = k;
  p.two_level = two_level;
  p.link.bandwidth_bps = 1e12;  // effectively free network
  p.link.latency_s = 1e-9;
  p.link.ack_cpu_s = 1e-9;
  return p;
}

TEST(ClusterSim, DecoderBoundMatchesFormula) {
  // Fast splitter, slow decoders: fps -> 1/t_d.
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const double ts = 1e-3, td = 10e-3;
  const auto traces = uniform_traces(200, geo.tiles(), ts, td);
  const auto r = simulate_cluster(traces, geo, fast_net_params(1));
  EXPECT_NEAR(r.fps, core::predicted_fps(1, ts, td), 0.05 * r.fps);
}

TEST(ClusterSim, SplitterBoundMatchesFormula) {
  // Slow splitter, fast decoders: fps -> k/t_s.
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const double ts = 10e-3, td = 1e-3;
  for (int k : {1, 2, 4}) {
    const auto traces = uniform_traces(200, geo.tiles(), ts, td);
    const auto r = simulate_cluster(traces, geo, fast_net_params(k));
    EXPECT_NEAR(r.fps, core::predicted_fps(k, ts, td), 0.07 * r.fps) << k;
  }
}

TEST(ClusterSim, CrossoverAtOptimalK) {
  // Beyond k* = ceil(ts/td) adding splitters stops helping.
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const double ts = 8e-3, td = 2e-3;  // k* = 4
  double prev = 0;
  std::vector<double> fps_k;
  for (int k = 1; k <= 6; ++k) {
    const auto traces = uniform_traces(300, geo.tiles(), ts, td);
    const auto r = simulate_cluster(traces, geo, fast_net_params(k));
    EXPECT_GE(r.fps, prev * 0.999) << "fps must be non-decreasing in k";
    prev = r.fps;
    fps_k.push_back(r.fps);
  }
  EXPECT_EQ(core::choose_k(ts, td), 4);
  // k=4 within 10% of k=6; k=2 clearly below k=4.
  EXPECT_GT(fps_k[3], fps_k[5] * 0.9);
  EXPECT_LT(fps_k[1], fps_k[3] * 0.7);
}

TEST(ClusterSim, OneLevelSaturatesAtSplitRate) {
  wall::TileGeometry geo(640, 480, 4, 4, 0);
  const double ts = 5e-3, td = 1e-3;
  const auto traces = uniform_traces(200, geo.tiles(), ts, td);
  const auto r = simulate_cluster(traces, geo, fast_net_params(1, false));
  EXPECT_NEAR(r.fps, 1.0 / ts, 0.05 / ts);
  EXPECT_EQ(r.nodes, 1 + geo.tiles());
}

TEST(ClusterSim, BreakdownAccountsForWallTime) {
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const auto traces = uniform_traces(100, geo.tiles(), 4e-3, 3e-3, 50000,
                                     15000, 2000);
  SimParams p = fast_net_params(2);
  p.link.bandwidth_bps = 160e6 * 8;
  p.link.latency_s = 10e-6;
  const auto r = simulate_cluster(traces, geo, p);
  for (const auto& bd : r.decoders) {
    EXPECT_GT(bd.work, 0.0);
    // Work+Serve+Receive+Wait+Ack ~ makespan (modulo start/drain edges).
    EXPECT_NEAR(bd.total(), r.makespan_s, 0.1 * r.makespan_s);
  }
}

TEST(ClusterSim, TrafficConservation) {
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const auto traces =
      uniform_traces(50, geo.tiles(), 4e-3, 3e-3, 50000, 15000, 2000);
  const auto r = simulate_cluster(traces, geo, fast_net_params(2));
  double sent = 0, recv = 0;
  for (const auto& t : r.traffic) {
    sent += t.sent_bytes;
    recv += t.recv_bytes;
  }
  EXPECT_NEAR(sent, recv, 1.0);
  EXPECT_GT(sent, 50.0 * 50000);
}

TEST(ClusterSim, SlowNetworkReducesFps) {
  wall::TileGeometry geo(640, 480, 2, 2, 0);
  const auto traces =
      uniform_traces(100, geo.tiles(), 2e-3, 2e-3, 500000, 150000, 0);
  SimParams fast = fast_net_params(2);
  SimParams slow = fast;
  slow.link.bandwidth_bps = 10e6 * 8;  // 10 MB/s: transfers dominate
  const auto rf = simulate_cluster(traces, geo, fast);
  const auto rs = simulate_cluster(traces, geo, slow);
  EXPECT_LT(rs.fps, rf.fps * 0.8);
}

TEST(ClusterSim, MeasureCosts) {
  auto traces = uniform_traces(10, 4, 3e-3, 2e-3);
  traces[0].decode_s[2] = 7e-3;  // one slow tile on one picture
  const auto c = measure_costs(traces);
  EXPECT_NEAR(c.t_split, 3e-3, 1e-9);
  EXPECT_NEAR(c.t_copy, 20e-6, 1e-9);
  EXPECT_GT(c.t_decode, 2e-3);        // max-based
  EXPECT_GT(c.t_decode, c.t_decode_mean);
}

TEST(ConfigModel, ChooseK) {
  EXPECT_EQ(core::choose_k(10e-3, 10e-3), 1);
  EXPECT_EQ(core::choose_k(10e-3, 5e-3), 2);
  EXPECT_EQ(core::choose_k(11e-3, 5e-3), 3);
  EXPECT_EQ(core::choose_k(1e-3, 5e-3), 1);
}

TEST(ConfigModel, ChooseTiling) {
  core::WallPanel panel;  // 1024x768, 40px overlap
  int m = 0, n = 0;
  core::choose_tiling(3840, 2912, panel, &m, &n);
  EXPECT_EQ(m, 4);
  EXPECT_EQ(n, 4);
  core::choose_tiling(720, 480, panel, &m, &n);
  EXPECT_EQ(m, 1);
  EXPECT_EQ(n, 1);
  core::choose_tiling(1280, 720, panel, &m, &n);
  EXPECT_EQ(m, 2);
  EXPECT_EQ(n, 1);
}

TEST(ConfigModel, TargetFpsK) {
  // ts = 40ms, td = 10ms: full-speed k = 4.
  EXPECT_EQ(core::choose_k_for_target_fps(100.0, 40e-3, 10e-3), 4);
  EXPECT_EQ(core::choose_k_for_target_fps(50.0, 40e-3, 10e-3), 2);
  EXPECT_EQ(core::choose_k_for_target_fps(10.0, 40e-3, 10e-3), 1);
}

}  // namespace
}  // namespace pdw::sim
