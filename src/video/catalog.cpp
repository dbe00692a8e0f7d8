#include "video/catalog.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "enc/encoder.h"

namespace pdw::video {

namespace fs = std::filesystem;

namespace {

// One Table-4 row, with the skewed-family fields at their defaults.
StreamSpec row(int id, const char* name, int width, int height, double fps,
               double target_bpp, SceneKind scene, int tiles_m, int tiles_n,
               const char* note) {
  return {id, name, width, height, fps, target_bpp, scene, tiles_m, tiles_n,
          note, /*scene_seed=*/0, /*custom_hot=*/false, /*hot=*/{}};
}

}  // namespace

const std::vector<StreamSpec>& stream_catalog() {
  using SK = SceneKind;
  static const std::vector<StreamSpec> kCatalog = {
      // DVD-class clips (the paper's three movie trailers; higher bpp).
      row(1, "spr", 720, 480, 24, 0.55, SK::kMovingObjects, 1, 1,
          "Saving Private Ryan clip -> moving-objects scene"),
      row(2, "matrix", 720, 480, 24, 0.60, SK::kPanningTexture, 1, 1,
          "The Matrix clip -> panning texture"),
      row(3, "t2", 720, 480, 24, 0.50, SK::kMovingObjects, 1, 1,
          "Terminator 2 clip -> moving-objects scene"),
      // XGA animation.
      row(4, "anim1", 1024, 768, 30, 0.30, SK::kAnimation, 2, 1,
          "short animation (A. Finkelstein) -> flat-shaded shapes"),
      // HDTV fish-tank captures (Intel MRL).
      row(5, "fish1", 1280, 720, 30, 0.30, SK::kMovingObjects, 2, 1,
          "HDTV fish tank shot 1"),
      row(6, "fish2", 1280, 720, 30, 0.30, SK::kMovingObjects, 2, 1,
          "HDTV fish tank shot 2"),
      row(7, "fish3", 1280, 720, 30, 0.30, SK::kMovingObjects, 2, 1,
          "HDTV fish tank shot 3"),
      row(8, "fish4", 1280, 720, 30, 0.30, SK::kMovingObjects, 2, 1,
          "HDTV fish tank shot 4"),
      // Broadcast HDTV captures.
      row(9, "fox", 1280, 720, 60, 0.30, SK::kPanningTexture, 2, 1,
          "FOX5 720p broadcast"),
      row(10, "nbc", 1920, 1088, 30, 0.30, SK::kMovingObjects, 2, 2,
          "NBC4 1080i broadcast (progressive 1920x1088 here)"),
      row(11, "cbs", 1920, 1088, 30, 0.30, SK::kPanningTexture, 2, 2,
          "CBS3 1080i broadcast (progressive 1920x1088 here)"),
      // Quadrupled-resolution animation.
      row(12, "anim2", 2048, 1536, 30, 0.30, SK::kAnimation, 3, 2,
          "anim1 rendered at 4x resolution"),
      // Orion Nebula flyby visualizations (UCSD) — localized detail.
      row(13, "orion1", 2048, 1536, 30, 0.30, SK::kLocalizedDetail, 3, 2,
          "Orion flyby, lowest resolution"),
      row(14, "orion2", 2560, 1920, 30, 0.30, SK::kLocalizedDetail, 3, 3,
          "Orion flyby"),
      row(15, "orion3", 3200, 2304, 30, 0.30, SK::kLocalizedDetail, 4, 3,
          "Orion flyby"),
      row(16, "orion4", 3840, 2912, 30, 0.30, SK::kLocalizedDetail, 4, 4,
          "Orion flyby, near-IMAX (~100 Mbps at 30 fps)"),
  };
  return kCatalog;
}

const StreamSpec& stream_by_id(int id) {
  const auto& cat = stream_catalog();
  PDW_CHECK_GE(id, 1);
  PDW_CHECK_LE(id, int(cat.size()));
  return cat[size_t(id - 1)];
}

StreamSpec skewed_stream_spec(int variant, int width, int height) {
  PDW_CHECK_GE(variant, 0);
  StreamSpec spec;
  spec.id = 100 + variant;
  spec.name = "skew" + std::to_string(variant);
  spec.width = width;
  spec.height = height;
  spec.fps = 30;
  spec.target_bpp = 0.30;
  spec.scene = SceneKind::kLocalizedDetail;
  spec.note = "seeded hot-region orion-style skew";
  spec.scene_seed = 0x5EED'0000'0000'0000ull + uint64_t(variant);
  spec.custom_hot = true;
  spec.hot = HotRegion::seeded(spec.scene_seed);
  return spec;
}

int default_frame_count() {
  if (const char* env = std::getenv("PDW_FRAMES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 48;
}

namespace {

fs::path cache_dir() {
  if (const char* env = std::getenv("PDW_CACHE_DIR")) return fs::path(env);
  return fs::temp_directory_path() / "pdw_stream_cache";
}

int frame_rate_code_for(double fps) {
  if (fps >= 59.0) return 8;   // 60
  if (fps >= 29.0) return 5;   // 30
  if (fps >= 24.5) return 3;   // 25
  return 2;                    // 24
}

}  // namespace

std::vector<uint8_t> load_stream(const StreamSpec& spec, int frames) {
  const fs::path dir = cache_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  char key[160];
  if (spec.scene_seed || spec.custom_hot) {
    std::snprintf(key, sizeof(key), "s%02d_%s_%dx%d_f%d_h%016llx_v6.m2v",
                  spec.id, spec.name.c_str(), spec.width, spec.height, frames,
                  static_cast<unsigned long long>(spec.scene_seed));
  } else {
    std::snprintf(key, sizeof(key), "s%02d_%s_%dx%d_f%d_v6.m2v", spec.id,
                  spec.name.c_str(), spec.width, spec.height, frames);
  }
  const fs::path file = dir / key;

  if (fs::exists(file, ec)) {
    std::ifstream in(file, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    if (!bytes.empty()) return bytes;
  }

  enc::EncoderConfig cfg;
  cfg.width = spec.width;
  cfg.height = spec.height;
  cfg.target_bpp = spec.target_bpp;
  cfg.frame_rate_code = frame_rate_code_for(spec.fps);
  cfg.gop_size = 12;
  cfg.b_frames = 2;
  const uint64_t seed =
      spec.scene_seed ? spec.scene_seed : 0xC0FFEE00u + uint64_t(spec.id);
  const auto scene =
      spec.custom_hot
          ? make_localized_scene(spec.width, spec.height, seed, spec.hot)
          : make_scene(spec.scene, spec.width, spec.height, seed);
  enc::Mpeg2Encoder encoder(cfg);
  std::vector<uint8_t> es = encoder.encode(
      frames,
      [&](int index, mpeg2::Frame* out) { scene->render(index, out); });

  std::ofstream out(file, std::ios::binary);
  out.write(reinterpret_cast<const char*>(es.data()),
            std::streamsize(es.size()));
  return es;
}

StreamMetrics measure_stream(const StreamSpec& spec,
                             const std::vector<uint8_t>& es, int frames) {
  StreamMetrics m;
  m.avg_frame_bytes = double(es.size()) / std::max(1, frames);
  m.bpp = m.avg_frame_bytes * 8.0 / spec.pixels();
  m.bit_rate_mbps = m.avg_frame_bytes * 8.0 * spec.fps / 1e6;
  return m;
}

}  // namespace pdw::video
