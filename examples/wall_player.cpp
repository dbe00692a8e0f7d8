// Wall player: "play" one of the paper's 16 catalog streams on an m x n
// display wall and report what the operator of the Princeton wall would see:
// the simulated cluster frame rate, the per-node bandwidth, and snapshots of
// the assembled wall image.
//
// Usage:
//   wall_player [stream_id=16] [m] [n] [k] [frames]
//
// Defaults: the stream's Table-6 configuration, k from the measured t_s/t_d,
// and PDW_FRAMES (48) frames.
//
// PDW_TRACE=out.json enables the span tracer for the whole run: the lockstep
// decode and the simulated cluster schedule land in out.json (Chrome
// trace-event JSON, Perfetto-loadable), a metrics snapshot lands next to it
// in out.metrics.json, and the traced Fig. 7 stage shares plus the Fig. 9
// node x node byte matrix print at the end.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/config.h"
#include "core/lockstep.h"
#include "examples/example_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cluster_sim.h"
#include "video/catalog.h"
#include "wall/assembler.h"

using namespace pdw;

int main(int argc, char** argv) {
  const int stream_id = argc > 1 ? std::atoi(argv[1]) : 16;
  const video::StreamSpec& spec = video::stream_by_id(stream_id);
  const int m = argc > 2 ? std::atoi(argv[2]) : spec.tiles_m;
  const int n = argc > 3 ? std::atoi(argv[3]) : spec.tiles_n;
  int k = argc > 4 ? std::atoi(argv[4]) : 0;  // 0 = auto
  const int frames =
      argc > 5 ? std::atoi(argv[5]) : video::default_frame_count();

  std::printf("stream %d (%s): %dx%d \"%s\"\n", spec.id, spec.name.c_str(),
              spec.width, spec.height, spec.note.c_str());
  const auto es = video::load_stream(spec, frames);
  std::printf("%d frames, %.2f MB (%.3f bpp)\n", frames,
              double(es.size()) / 1e6,
              double(es.size()) * 8 / (double(spec.pixels()) * frames));

  const char* trace_path = std::getenv("PDW_TRACE");
  if (trace_path && *trace_path) obs::Tracer::global().enable();

  wall::TileGeometry geo(spec.width, spec.height, m, n, 40);
  core::LockstepPipeline pipeline(geo, 1, es);

  // Play: decode every picture, assemble the wall, snapshot a few frames,
  // and collect cost traces for the cluster simulation.
  std::vector<core::PictureTrace> traces;
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  int assembled = 0;
  pipeline.run(
      [&](int tile, const mpeg2::TileFrame& tf,
          const core::TileDisplayInfo& info) {
        Pending& p = pending[info.display_index];
        if (!p.assembler)
          p.assembler = std::make_unique<wall::WallAssembler>(geo);
        p.assembler->add_tile(tile, tf);
        if (++p.tiles == geo.tiles()) {
          p.assembler->check_coverage();
          if (info.display_index % 16 == 0) {
            char name[64];
            std::snprintf(name, sizeof(name), "wall_s%02d_frame%03d.ppm",
                          spec.id, info.display_index);
            examples::write_ppm(
                wall::crop_frame(p.assembler->frame(), geo.width(),
                                 geo.height()),
                name);
            std::printf("wrote %s\n", name);
          }
          ++assembled;
          pending.erase(info.display_index);
        }
      },
      [&](const core::PictureTrace& tr) { traces.push_back(tr); });
  std::printf("assembled %d wall frames (all tiles, coverage checked)\n",
              assembled);

  // Cluster performance on the modeled Myrinet.
  const auto costs = sim::measure_costs(traces);
  if (k <= 0) k = core::choose_k(costs.t_split, costs.t_decode);
  sim::SimParams p;
  p.two_level = true;
  p.k = k;
  const auto r = sim::simulate_cluster(traces, geo, p);
  std::printf("\n1-%d-(%d,%d) on %d nodes: %.1f fps (t_s %.2f ms, t_d %.2f "
              "ms, model %.1f fps)\n",
              k, m, n, r.nodes, r.fps, costs.t_split * 1e3,
              costs.t_decode * 1e3,
              core::predicted_fps(k, costs.t_split, costs.t_decode));
  double max_bw = 0;
  for (int nid = 1; nid < r.nodes; ++nid)
    max_bw = std::max(max_bw, r.send_bandwidth_Bps(nid));
  std::printf("peak per-node send bandwidth: %.2f MB/s\n", max_bw / 1e6);

  if (trace_path && *trace_path) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.disable();

    // Fig. 7 from the traced spans of the simulated decoders.
    const auto shares = obs::fig7_breakdown(
        tracer, sim::kSimTracePidBase + r.first_decoder_node,
        sim::kSimTracePidBase + r.nodes - 1, sim::kSimTracePidBase);
    std::printf("\ntraced Fig. 7 stage shares (simulated decoders):\n");
    obs::print_fig7(shares, stdout);

    // Fig. 9: node x node byte matrix of the simulated cluster.
    auto node_name = [&](int nid) {
      if (nid == 0) return std::string("root");
      std::string name = nid < r.first_decoder_node ? "S" : "D";
      name += std::to_string(nid);
      return name;
    };
    std::printf("\ntraced Fig. 9 traffic matrix (simulated cluster):\n");
    r.traffic_matrix.to_table(node_name).print(stdout);

    auto pid_name = [&](int pid) {
      if (pid >= sim::kSimTracePidBase)
        return "sim/" + node_name(pid - sim::kSimTracePidBase);
      return "lockstep/node" + std::to_string(pid);
    };
    if (obs::write_chrome_trace(tracer, trace_path, pid_name))
      std::printf("\nwrote %s (%zu events, %llu dropped)\n", trace_path,
                  tracer.collect().size(),
                  (unsigned long long)tracer.dropped());
    else
      std::fprintf(stderr, "failed to write %s\n", trace_path);

    std::string mpath = trace_path;
    if (mpath.ends_with(".json")) mpath.resize(mpath.size() - 5);
    mpath += ".metrics.json";
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    if (obs::write_metrics_json(snap, mpath))
      std::printf("wrote %s\n", mpath.c_str());
    obs::metrics_report(snap, stdout);
  }
  return 0;
}
