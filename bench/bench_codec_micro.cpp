// Codec micro-benchmarks (google-benchmark): the per-primitive costs that
// make up t_s and t_d — IDCT, forward DCT, DCT coefficient VLC decode,
// half-pel motion compensation, start-code scanning, full-picture split and
// full-picture decode. The BM_Kernel* group runs each dispatched kernel at
// every supported level (scalar/sse2/avx2), so the scalar-vs-SIMD speedup
// per primitive reads directly off one report.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bitstream/start_code.h"
#include "common/stats.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "enc/encoder.h"
#include "kernels/kernels.h"
#include "mpeg2/decoder.h"
#include "mpeg2/idct.h"
#include "mpeg2/motion.h"
#include "mpeg2/tables.h"
#include "video/generator.h"
#include "wall/geometry.h"

namespace pdw {
namespace {

const std::vector<uint8_t>& test_stream() {
  static const std::vector<uint8_t> es = [] {
    enc::EncoderConfig cfg;
    cfg.width = 1280;
    cfg.height = 720;
    cfg.target_bpp = 0.3;
    const auto gen = video::make_scene(video::SceneKind::kMovingObjects, 1280,
                                       720, 11);
    enc::Mpeg2Encoder encoder(cfg);
    return encoder.encode(12,
                          [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
  }();
  return es;
}

void BM_FastIdct(benchmark::State& state) {
  SplitMix64 rng(1);
  int16_t block[64];
  for (auto& v : block) v = int16_t(int(rng.next_below(400)) - 200);
  int16_t work[64];
  for (auto _ : state) {
    std::copy(std::begin(block), std::end(block), std::begin(work));
    mpeg2::fast_idct_8x8(work);
    benchmark::DoNotOptimize(work[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastIdct);

void BM_ForwardDct(benchmark::State& state) {
  SplitMix64 rng(2);
  int16_t pixels[64], coeff[64];
  for (auto& v : pixels) v = int16_t(rng.next_below(256));
  for (auto _ : state) {
    mpeg2::forward_dct_8x8(pixels, coeff);
    benchmark::DoNotOptimize(coeff[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardDct);

void BM_DctCoeffVlc(benchmark::State& state) {
  // Encode a realistic run/level sequence once, decode it repeatedly.
  BitWriter w;
  SplitMix64 rng(3);
  const int coeffs = 64;
  bool first = true;
  for (int i = 0; i < coeffs; ++i) {
    mpeg2::encode_dct_coeff_b14(w, int(rng.next_below(4)),
                                int(rng.next_below(12)) + 1, first);
    first = false;
  }
  mpeg2::encode_eob_b14(w);
  w.align_to_byte();
  const auto bytes = w.take();
  for (auto _ : state) {
    BitReader r(bytes);
    bool f = true;
    int n = 0;
    while (true) {
      const auto c = mpeg2::decode_dct_coeff_b14(r, f);
      f = false;
      if (c.eob) break;
      n += c.level;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * coeffs);
}
BENCHMARK(BM_DctCoeffVlc);

void BM_MotionCompensateHalfPel(benchmark::State& state) {
  mpeg2::Frame ref(128, 128);
  SplitMix64 rng(4);
  for (int y = 0; y < 128; ++y)
    for (int x = 0; x < 128; ++x) ref.y.set(x, y, uint8_t(rng.next()));
  mpeg2::FrameRefSource src(ref);
  mpeg2::Macroblock mb;
  mb.flags = mpeg2::mb_flags::kMotionForward;
  mb.mv[0][0] = 13;  // half-pel in both axes
  mb.mv[0][1] = 7;
  mpeg2::MacroblockPixels out;
  for (auto _ : state) {
    mpeg2::motion_compensate(mb, &src, nullptr, 2, 2, &out);
    benchmark::DoNotOptimize(out.y[0]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MotionCompensateHalfPel);

void BM_StartCodeScan(benchmark::State& state) {
  const auto& es = test_stream();
  for (auto _ : state) {
    auto spans = scan_pictures(es);
    benchmark::DoNotOptimize(spans.size());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(es.size()));
}
BENCHMARK(BM_StartCodeScan);

void BM_MacroblockSplitPicture(benchmark::State& state) {
  const auto& es = test_stream();
  core::RootSplitter root(es);
  wall::TileGeometry geo(1280, 720, int(state.range(0)), 2, 40);
  core::MacroblockSplitter splitter(geo);
  splitter.set_stream_info(root.stream_info());
  int i = 0;
  for (auto _ : state) {
    auto result = splitter.split(root.picture(i), uint32_t(i));
    benchmark::DoNotOptimize(result.stats.macroblocks);
    i = (i + 1) % root.picture_count();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MacroblockSplitPicture)->Arg(2)->Arg(4);

void BM_SerialDecodePicture(benchmark::State& state) {
  const auto& es = test_stream();
  for (auto _ : state) {
    mpeg2::Mpeg2Decoder dec;
    int frames = 0;
    dec.decode(es, [&](const mpeg2::Frame&, const mpeg2::DecodedPictureInfo&) {
      ++frames;
    });
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(state.iterations() * 12);
}
BENCHMARK(BM_SerialDecodePicture)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Per-level kernel benchmarks: the same primitive timed through each
// compiled-in dispatch table the host supports. Registered from main() so
// unsupported levels simply do not appear.
// ---------------------------------------------------------------------------

void bm_kernel_idct(benchmark::State& state, const kernels::KernelTable* t) {
  SplitMix64 rng(1);
  alignas(32) int16_t block[64];
  for (auto& v : block) v = int16_t(int(rng.next_below(400)) - 200);
  alignas(32) int16_t work[64];
  for (auto _ : state) {
    std::copy(std::begin(block), std::end(block), std::begin(work));
    t->idct_8x8(work);
    benchmark::DoNotOptimize(work[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

void bm_kernel_interp(benchmark::State& state, const kernels::KernelTable* t) {
  SplitMix64 rng(2);
  uint8_t window[17 * 17];
  for (auto& v : window) v = uint8_t(rng.next());
  uint8_t dst[16 * 16];
  for (auto _ : state) {
    t->interp_halfpel(window, 17, dst, 16, 16, 1, 1);  // worst case: hx=hy=1
    benchmark::DoNotOptimize(dst[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

void bm_kernel_add_residual(benchmark::State& state,
                            const kernels::KernelTable* t) {
  SplitMix64 rng(3);
  alignas(32) int16_t res[64];
  for (auto& v : res) v = int16_t(int(rng.next_below(512)) - 256);
  uint8_t dst[16 * 8];
  for (auto& v : dst) v = uint8_t(rng.next());
  for (auto _ : state) {
    t->add_residual_8x8(res, dst, 16);
    benchmark::DoNotOptimize(dst[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

void bm_kernel_sad(benchmark::State& state, const kernels::KernelTable* t) {
  SplitMix64 rng(5);
  uint8_t a[64 * 16], b[64 * 17];
  for (auto& v : a) v = uint8_t(rng.next());
  for (auto& v : b) v = uint8_t(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->sad16x16(a, 64, b, 64, UINT32_MAX));
  }
  state.SetItemsProcessed(state.iterations());
}

void register_kernel_benches() {
  using benchmark::RegisterBenchmark;
  for (int i = 0; i < kernels::kLevelCount; ++i) {
    const auto level = kernels::Level(i);
    const kernels::KernelTable* t = kernels::table_for(level);
    if (t == nullptr) continue;
    const std::string suffix = std::string("/") + kernels::level_name(level);
    RegisterBenchmark(("BM_KernelIdct" + suffix).c_str(), bm_kernel_idct, t);
    RegisterBenchmark(("BM_KernelInterpHalfpel" + suffix).c_str(),
                      bm_kernel_interp, t);
    RegisterBenchmark(("BM_KernelAddResidual" + suffix).c_str(),
                      bm_kernel_add_residual, t);
    RegisterBenchmark(("BM_KernelSad16x16" + suffix).c_str(), bm_kernel_sad, t);
  }
}

}  // namespace
}  // namespace pdw

// Custom main instead of BENCHMARK_MAIN(): (a) normalize the
// --benchmark_min_time flag so both google-benchmark generations accept the
// same invocation (1.8+ takes "0.2s"/"25x"; the 1.7 series only a plain
// double — strip a trailing "s" when the rest parses as a number), and
// (b) register the per-level kernel benchmarks for the levels this host
// supports.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  constexpr const char kMinTime[] = "--benchmark_min_time=";
  for (auto& a : args) {
    if (a.rfind(kMinTime, 0) == 0 && !a.empty() && a.back() == 's') {
      std::string value = a.substr(sizeof(kMinTime) - 1);
      value.pop_back();
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end != value.c_str() && *end == '\0')
        a = kMinTime + value;  // "0.2s" -> "0.2"
    }
  }
  std::vector<char*> cargs;
  for (auto& a : args) cargs.push_back(a.data());
  int cargc = int(cargs.size());

  pdw::register_kernel_benches();
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  std::printf("active kernel level: %s\n",
              pdw::kernels::level_name(pdw::kernels::active_level()));
  // The library routes its context header (host info, warnings) to stderr;
  // send everything to stdout so result files capture the full report and a
  // clean run leaves stderr empty.
  benchmark::ConsoleReporter reporter(benchmark::ConsoleReporter::OO_Tabular);
  reporter.SetOutputStream(&std::cout);
  reporter.SetErrorStream(&std::cout);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
