// Quickstart: the whole system in one small program.
//
//   1. Synthesize a short video and compress it with the bundled MPEG-2
//      encoder.
//   2. Play it through the threaded 1-2-(2,2) hierarchical parallel decoder
//      (real concurrent nodes exchanging messages over the GM-like fabric).
//   3. Re-assemble the wall image from the four tiles and verify it is
//      bit-exact with a plain serial decode.
//   4. Save the first assembled frame as quickstart_frame0.ppm.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <map>

#include "core/pipeline.h"
#include "enc/encoder.h"
#include "examples/example_util.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"
#include "wall/assembler.h"

using namespace pdw;

int main() {
  // --- 1. Make a stream ------------------------------------------------------
  const int width = 640, height = 480, frames = 24;
  enc::EncoderConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.target_bpp = 0.35;
  const auto scene =
      video::make_scene(video::SceneKind::kMovingObjects, width, height, 7);
  enc::EncodeStats enc_stats;
  enc::Mpeg2Encoder encoder(cfg);
  const std::vector<uint8_t> es = encoder.encode(
      frames, [&](int i, mpeg2::Frame* f) { scene->render(i, f); },
      &enc_stats);
  std::printf("encoded %d frames: %zu bytes (%.2f bpp), %d skipped MBs\n",
              frames, es.size(), enc_stats.avg_bpp(width, height),
              enc_stats.skipped_mbs);

  // --- 2+3. Parallel decode on a 2x2 wall with 2 splitters -------------------
  wall::TileGeometry geo(width, height, 2, 2, /*overlap=*/40);
  core::ClusterPipeline pipeline(geo, /*k=*/2, es);

  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  std::map<int, mpeg2::Frame> wall_frames;
  const auto stats = pipeline.run([&](int tile, const mpeg2::TileFrame& tf,
                                      const core::TileDisplayInfo& info) {
    Pending& p = pending[info.display_index];
    if (!p.assembler) p.assembler = std::make_unique<wall::WallAssembler>(geo);
    p.assembler->add_tile(tile, tf);
    if (++p.tiles == geo.tiles()) {
      p.assembler->check_coverage();
      wall_frames.emplace(info.display_index, p.assembler->frame());
      pending.erase(info.display_index);
    }
  });
  std::printf("parallel pipeline: %d pictures on %d nodes\n", stats.pictures,
              stats.nodes);

  // Serial reference decode.
  int mismatches = 0;
  int index = 0;
  mpeg2::Mpeg2Decoder serial;
  serial.decode(es, [&](const mpeg2::Frame& f,
                        const mpeg2::DecodedPictureInfo&) {
    const auto it = wall_frames.find(index++);
    if (it == wall_frames.end() ||
        wall::crop_frame(f, width, height) !=
            wall::crop_frame(it->second, width, height))
      ++mismatches;
  });
  std::printf("bit-exactness vs serial decoder: %s (%d/%d frames)\n",
              mismatches == 0 ? "PASS" : "FAIL", index - mismatches, index);

  // Traffic summary.
  const uint64_t total = stats.traffic_matrix.total();
  std::printf("total network traffic: %.2f MB (%.1f KB/frame)\n",
              double(total) / 1e6, double(total) / 1e3 / frames);

  // --- 4. Snapshot ------------------------------------------------------------
  if (!wall_frames.empty() &&
      examples::write_ppm(wall::crop_frame(wall_frames.begin()->second, width,
                                           height),
                          "quickstart_frame0.ppm"))
    std::printf("wrote quickstart_frame0.ppm\n");

  return mismatches == 0 ? 0 : 1;
}
