// Multi-stream sessions: N independent elementary streams decoded through
// one wall, pictures interleaved round-robin (core::StreamSession — the
// wire format's `stream` byte at work).
//
// Not a paper table: the paper decodes one stream per wall. This measures
// what the protocol layer newly supports — how aggregate throughput scales
// as one wall serves more concurrent streams — on the host CPU, where total
// decode work grows linearly with N and per-stream fps falls accordingly.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/text_table.h"
#include "core/session.h"
#include "enc/encoder.h"
#include "video/generator.h"

using namespace pdw;

namespace {

std::vector<uint8_t> scene_stream(video::SceneKind scene, int w, int h,
                                  int frames, uint64_t seed) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.35;
  const auto gen = video::make_scene(scene, w, h, seed);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

}  // namespace

int main() {
  benchutil::print_banner(
      "Multi-stream sessions — aggregate throughput vs stream count",
      "beyond the paper: StreamSession over the Table-3 protocol",
      "N streams share one 2x2 wall (k=2); aggregate fps should stay near "
      "the single-stream figure (the wall is compute-bound), per-stream fps "
      "~ aggregate/N");

  const int w = 320, h = 240, k = 2;
  wall::TileGeometry geo(w, h, 2, 2, 0);

  // Distinct scenes so concurrent streams do unequal work, like a real wall
  // serving unrelated feeds.
  const int frames = std::min(24, benchutil::bench_frames());
  const video::SceneKind scenes[] = {
      video::SceneKind::kMovingObjects, video::SceneKind::kPanningTexture,
      video::SceneKind::kAnimation, video::SceneKind::kLocalizedDetail};
  std::vector<std::vector<uint8_t>> streams;
  uint64_t seed = 7;
  for (video::SceneKind scene : scenes)
    streams.push_back(scene_stream(scene, w, h, frames, seed++));

  TextTable table({"streams", "pictures", "wall (s)", "aggregate fps",
                   "per-stream fps"});
  double single_fps = 0;
  for (int n = 1; n <= int(streams.size()); ++n) {
    core::StreamSession session(geo, k);
    for (int s = 0; s < n; ++s) session.add_stream(streams[size_t(s)]);
    const auto r = session.run(nullptr);
    if (n == 1) single_fps = r.aggregate_fps;
    table.add_row({format("%d", r.streams), format("%llu",
                   static_cast<unsigned long long>(r.pictures)),
                   format("%.3f", r.wall_seconds),
                   format("%.1f", r.aggregate_fps),
                   format("%.1f", r.aggregate_fps / n)});
    benchutil::json_metric(format("multistream_%d_aggregate_fps", n),
                           r.aggregate_fps, "fps");
  }
  table.print(stdout);
  std::printf("\nCSV:\n");
  table.print_csv(stdout);
  std::printf(
      "\nExpectation: aggregate fps roughly flat vs N (within ~20%% of the "
      "1-stream %.1f fps); the session adds interleaving, not contention.\n",
      single_fps);
  return 0;
}
