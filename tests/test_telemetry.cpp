// Cluster telemetry sideband (DESIGN.md §13): the wire codec must
// round-trip every record type and reject every truncation; two exporters
// whose tracers have different epochs must merge into one trace on the
// shared host clock, exact to the nanosecond, spans that predate the
// collector included; forged frames must not grow the collector's state
// past its caps; the flight recorder must produce a parseable post-mortem;
// and an in-process 7-node socket wall must stream itself into ONE merged
// multi-pid trace.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/udp.h"
#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "obs/collector.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "video/generator.h"
#include "wall/geometry.h"

namespace pdw {
namespace {

using obs::Collector;
using obs::TelemetryExporter;
using obs::TelemetryExporterConfig;
using obs::TelemetryFrame;

// ---------------------------------------------------------------------------
// Wire codec: round trip and adversarial truncation.
// ---------------------------------------------------------------------------

TelemetryFrame full_frame() {
  TelemetryFrame f;
  f.token = 0xDEADBEEFCAFE1234ull;
  f.seq = 42;
  obs::HelloRecord hello;
  hello.os_pid = 1234;
  hello.k = 2;
  hello.tiles = 4;
  hello.nodes = 7;
  hello.hosted = {3, 4};
  f.hello = hello;
  obs::MetricRecord c;
  c.family = "pictures_decoded";
  c.node = 3;
  c.stream = 0;
  c.kind = obs::MetricKind::kCounter;
  c.count = 17;
  obs::MetricRecord g;
  g.family = "queue_depth";
  g.node = -1;
  g.stream = -1;
  g.kind = obs::MetricKind::kGauge;
  g.gauge = -5;
  obs::MetricRecord h;
  h.family = "rtt_ns";
  h.node = 4;
  h.kind = obs::MetricKind::kHistogram;
  h.count = 3;
  h.sum = 7000;
  h.buckets = {{11, 2}, {12, 1}};
  f.metrics = {c, g, h};
  obs::SpanRecord s1;
  s1.name = "decode_sp";
  s1.ph = 'X';
  s1.pid = 3;
  s1.tid = 1;
  s1.ts_ns = 1000;
  s1.dur_ns = 250;
  s1.pic = 7;
  obs::SpanRecord s2;
  s2.name = "adopt_tile";
  s2.ph = 'i';
  s2.pid = 4;
  s2.ts_ns = 2000;
  f.spans = {s1, s2};
  f.bye = true;
  return f;
}

TEST(TelemetryCodec, RoundTripsEveryRecordType) {
  const TelemetryFrame f = full_frame();
  const std::vector<uint8_t> wire = obs::encode_frame(f);
  TelemetryFrame d;
  ASSERT_TRUE(obs::decode_frame(wire.data(), wire.size(), &d));

  EXPECT_EQ(d.token, f.token);
  EXPECT_EQ(d.seq, f.seq);
  ASSERT_TRUE(d.hello.has_value());
  EXPECT_EQ(d.hello->os_pid, 1234u);
  EXPECT_EQ(d.hello->k, 2);
  EXPECT_EQ(d.hello->tiles, 4);
  EXPECT_EQ(d.hello->nodes, 7);
  EXPECT_EQ(d.hello->hosted, (std::vector<uint16_t>{3, 4}));
  ASSERT_EQ(d.metrics.size(), 3u);
  EXPECT_EQ(d.metrics[0].family, "pictures_decoded");
  EXPECT_EQ(d.metrics[0].count, 17u);
  EXPECT_EQ(d.metrics[1].gauge, -5);
  EXPECT_EQ(d.metrics[2].buckets,
            (std::vector<std::pair<uint8_t, uint64_t>>{{11, 2}, {12, 1}}));
  ASSERT_EQ(d.spans.size(), 2u);
  EXPECT_EQ(d.spans[0].name, "decode_sp");
  EXPECT_EQ(d.spans[0].ph, 'X');
  EXPECT_EQ(d.spans[0].dur_ns, 250u);
  EXPECT_EQ(d.spans[0].pic, 7u);
  EXPECT_EQ(d.spans[1].ph, 'i');
  EXPECT_EQ(d.spans[1].ts_ns, 2000u);
  EXPECT_TRUE(d.bye);
}

TEST(TelemetryCodec, EveryTruncationRejectedWithoutCrashing) {
  const std::vector<uint8_t> wire = obs::encode_frame(full_frame());
  ASSERT_GT(wire.size(), 22u);
  for (size_t len = 0; len < wire.size(); ++len) {
    TelemetryFrame d;
    EXPECT_FALSE(obs::decode_frame(wire.data(), len, &d))
        << "prefix of " << len << " bytes decoded as a full frame";
  }
}

TEST(TelemetryCodec, CorruptMagicRejected) {
  std::vector<uint8_t> wire = obs::encode_frame(full_frame());
  wire[0] ^= 0xFF;
  TelemetryFrame d;
  EXPECT_FALSE(obs::decode_frame(wire.data(), wire.size(), &d));
}

// ---------------------------------------------------------------------------
// Live exporter -> collector, loopback.
// ---------------------------------------------------------------------------

// Polls `pred` until it holds or ~2 s elapse (collector runs on a background
// thread; datagrams need a moment to land).
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 200; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// One event of a merged trace, as write_trace_events printed it.
struct MergedEvent {
  std::string name;
  char ph = 0;
  int pid = 0;
  uint32_t pic = obs::Tracer::kNoPic;
  uint64_t ts_ns = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The span, instant and flow events of a merged trace (one per line), in
// file order, with ts converted back from µs to ns.
std::vector<MergedEvent> read_merged(const std::string& trace) {
  std::vector<MergedEvent> out;
  std::istringstream lines(trace);
  for (std::string line; std::getline(lines, line);) {
    const size_t ts = line.find("\"ts\":");
    if (ts == std::string::npos) continue;
    MergedEvent e;
    const size_t name = line.find("\"name\":\"") + 8;
    e.name = line.substr(name, line.find('"', name) - name);
    e.ph = line[line.find("\"ph\":\"") + 6];
    e.pid = std::stoi(line.substr(line.find("\"pid\":") + 6));
    if (const size_t pic = line.find("\"pic\":"); pic != std::string::npos)
      e.pic = uint32_t(std::stoul(line.substr(pic + 6)));
    e.ts_ns = uint64_t(std::llround(std::stod(line.substr(ts + 5)) * 1e3));
    out.push_back(e);
  }
  return out;
}

uint64_t rebase_ns(const std::string& trace) {
  const size_t at = trace.find("\"rebaseNs\":");
  return at == std::string::npos ? 0 : std::stoull(trace.substr(at + 11));
}

TEST(TelemetrySideband, TwoProcessesMergeOnTheHostClockExactly) {
  // Two "processes" (exporters with their own tracers) enabled at different
  // instants, so their tracer epochs differ by at least 2 ms.
  obs::Tracer early, late;
  early.enable(size_t(1) << 12);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  late.enable(size_t(1) << 12);
  ASSERT_GT(late.epoch_ns(), early.epoch_ns());
  // `late` records first in host time, `early` after: by each tracer's own
  // ts the order would be reversed.
  late.record(obs::span::kSplitPic, 1, late.now_ns(), 400, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  early.record(obs::span::kDecodeSp, 2, early.now_ns(), 700, 0);
  const std::vector<obs::TraceEvent> le = late.collect(), ee = early.collect();
  ASSERT_EQ(le.size(), 1u);
  ASSERT_EQ(ee.size(), 1u);
  const uint64_t split_host = late.epoch_ns() + le[0].ts_ns;
  const uint64_t decode_host = early.epoch_ns() + ee[0].ts_ns;
  ASSERT_LT(split_host, decode_host);

  Collector collector;
  ASSERT_TRUE(collector.ok());
  obs::MetricsRegistry reg;
  reg.counter("pictures_decoded", {.node = 2, .stream = 0}).add(42);
  auto export_all = [&](obs::Tracer* tracer, std::vector<uint16_t> hosted) {
    TelemetryExporterConfig cfg;
    cfg.collector = collector.endpoint();
    cfg.metrics = &reg;
    cfg.tracer = tracer;
    cfg.k = 1;
    cfg.tiles = 1;
    cfg.nodes = 3;
    cfg.hosted = std::move(hosted);
    TelemetryExporter exporter(cfg);
    exporter.stop();  // final flush + Bye
    collector.poll();
  };
  export_all(&early, {0, 2});
  export_all(&late, {1});

  const auto procs = collector.processes();
  ASSERT_EQ(procs.size(), 2u);
  for (const auto& p : procs) {
    EXPECT_TRUE(p.bye);
    EXPECT_EQ(p.span_events, 1u);
  }
  EXPECT_TRUE(collector.all_nodes_seen());
  EXPECT_EQ(collector.merged_metrics().counter_total("pictures_decoded"),
            84u);

  const std::string path = ::testing::TempDir() + "two_process_trace.json";
  ASSERT_TRUE(collector.write_merged_trace(path));
  const std::string trace = slurp(path);
  EXPECT_EQ(trace.find("clockOffsets"), std::string::npos);
  const uint64_t rebase = rebase_ns(trace);
  EXPECT_EQ(rebase, split_host);  // the earliest span
  std::vector<uint64_t> split_ts, decode_ts;
  size_t split_at = 0, decode_at = 0, index = 0;
  for (const MergedEvent& e : read_merged(trace)) {
    ++index;
    if (e.ph != 'X') continue;
    if (e.name == "split_pic") {
      split_ts.push_back(e.ts_ns);
      split_at = index;
    } else if (e.name == "decode_sp") {
      decode_ts.push_back(e.ts_ns);
      decode_at = index;
    }
  }
  ASSERT_EQ(split_ts, (std::vector<uint64_t>{split_host - rebase}));
  ASSERT_EQ(decode_ts, (std::vector<uint64_t>{decode_host - rebase}));
  EXPECT_LT(split_at, decode_at);  // the later span sorts later
}

// A process that traced before the collector existed keeps its order and
// exact spacing: the merged trace rebases by its earliest span instead of
// clamping what predates the collector onto ts 0.
TEST(TelemetrySideband, SpansBeforeTheCollectorKeepOrderAndSpacing) {
  obs::Tracer tracer;
  tracer.enable(size_t(1) << 12);
  const uint64_t gaps[] = {0, 1000, 250'000, 3};
  uint64_t ts = tracer.now_ns();
  for (uint32_t pic = 0; pic < 4; ++pic) {
    ts += gaps[pic];
    tracer.record(obs::span::kDecodeSp, 3, ts, 100, pic);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  Collector collector;  // born after every span above
  ASSERT_TRUE(collector.ok());
  obs::MetricsRegistry reg;
  TelemetryExporterConfig cfg;
  cfg.collector = collector.endpoint();
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  TelemetryExporter exporter(cfg);
  exporter.flush();
  collector.poll();

  const std::string path = ::testing::TempDir() + "early_spans_trace.json";
  ASSERT_TRUE(collector.write_merged_trace(path));
  std::vector<uint32_t> pics;
  std::vector<uint64_t> starts;
  for (const MergedEvent& e : read_merged(slurp(path))) {
    pics.push_back(e.pic);
    starts.push_back(e.ts_ns);
  }
  EXPECT_EQ(pics, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(starts, (std::vector<uint64_t>{0, 1000, 251'000, 251'003}));
}

TEST(TelemetrySideband, SecondCollectorOnAPortInUseIsNotOk) {
  Collector first;
  ASSERT_TRUE(first.ok());
  // Without SO_REUSEADDR the bind fails instead of splitting the port's
  // datagrams between two collectors.
  Collector second(first.endpoint().port);
  EXPECT_FALSE(second.ok());
}

TEST(TelemetrySideband, ExporterAndCollectorBindLoopback) {
  Collector collector;
  ASSERT_TRUE(collector.ok());
  EXPECT_EQ(collector.endpoint().ip, net::kLoopbackIp);
  TelemetryExporterConfig cfg;
  cfg.collector = collector.endpoint();
  TelemetryExporter exporter(cfg);
  EXPECT_EQ(exporter.local_endpoint().ip, net::kLoopbackIp);
  EXPECT_NE(exporter.local_endpoint().port, 0);
}

TEST(TelemetrySideband, FailedExportIsCounted) {
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  TelemetryExporterConfig cfg;
  // Without SO_BROADCAST, a send to the limited broadcast address fails.
  cfg.collector = net::Endpoint{0xffffffffu, 9};
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  TelemetryExporter exporter(cfg);
  exporter.flush();  // one export frame
  EXPECT_EQ(exporter.send_failures(), 1u);
}

TEST(TelemetrySideband, ForgedFramesCannotGrowCollectorStateUnbounded) {
  Collector collector;
  ASSERT_TRUE(collector.ok());
  net::UdpSocket forger;
  ASSERT_TRUE(forger.ok());
  // Loopback delivers each datagram into the collector's queue within the
  // send, so draining after every send loses none.
  auto deliver = [&](const TelemetryFrame& f) {
    ASSERT_TRUE(forger.send(collector.endpoint(), obs::encode_frame(f)));
    collector.poll();
  };

  // A fresh token per frame: the process table stops at its cap.
  const size_t extra = 16;
  for (size_t t = 1; t <= Collector::kMaxProcesses + extra; ++t) {
    TelemetryFrame f;
    f.token = t;
    f.seq = 1;
    deliver(f);
  }
  EXPECT_EQ(collector.processes().size(), Collector::kMaxProcesses);
  EXPECT_EQ(collector.dropped_frames(), extra);

  // A known token's frames still land, each with fresh metric keys: the
  // process's metric map stops at its cap.
  const size_t per_frame = 512;
  const size_t frames = Collector::kMaxMetricsPerProcess / per_frame + 1;
  for (size_t i = 0; i < frames; ++i) {
    TelemetryFrame f;
    f.token = 1;
    f.seq = uint32_t(2 + i);
    for (size_t j = 0; j < per_frame; ++j) {
      obs::MetricRecord m;
      m.family = "forged";
      m.node = int16_t(i * per_frame + j);
      m.kind = obs::MetricKind::kCounter;
      m.count = 1;
      f.metrics.push_back(m);
    }
    deliver(f);
  }
  EXPECT_EQ(collector.merged_metrics().values.size(),
            Collector::kMaxMetricsPerProcess);
  EXPECT_EQ(collector.dropped_metrics(),
            frames * per_frame - Collector::kMaxMetricsPerProcess);
  EXPECT_EQ(collector.dropped_frames(), extra);
}

// ---------------------------------------------------------------------------
// Flight recorder: a dump is a parseable post-mortem and the budget holds.
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DumpHoldsSpansWireAndMetricsAndBudgetCaps) {
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  obs::FlightRecorder::Config cfg;
  cfg.dir = ::testing::TempDir();
  cfg.node = 5;
  cfg.max_dumps = 2;
  fr.configure(cfg);  // enables the global tracer if off
  ASSERT_TRUE(fr.enabled());
  ASSERT_TRUE(obs::Tracer::global().enabled());

  obs::Tracer& tr = obs::Tracer::global();
  tr.record(obs::span::kDecodeSp, 5, tr.now_ns(), 2000, 11);
  fr.note_wire(/*tx=*/true, /*self=*/5, /*peer=*/0, /*msg_type=*/3,
               /*seq=*/77, /*aux=*/11, /*bytes=*/1500);
  fr.note_wire(false, 5, 1, 4, 78, 11, 900);

  const std::string path = fr.dump("black_box_test");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("black_box_test"), std::string::npos);
  EXPECT_NE(dump.find("\"spans\""), std::string::npos);
  EXPECT_NE(dump.find("\"wire\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("decode_sp"), std::string::npos);

  // max_dumps = 2: the second dump lands, the third is refused.
  EXPECT_FALSE(fr.dump("second").empty());
  EXPECT_TRUE(fr.dump("third").empty());
  EXPECT_EQ(fr.dumps_written(), 2u);
}

// ---------------------------------------------------------------------------
// End to end: an in-process 7-node socket wall streaming itself into one
// merged multi-pid trace.
// ---------------------------------------------------------------------------

std::vector<uint8_t> tiny_stream(int w, int h, int frames) {
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 21);
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

TEST(TelemetrySideband, SocketWallStreamsOneMergedTrace) {
  obs::Tracer::global().enable(size_t(1) << 15);
  Collector collector;
  ASSERT_TRUE(collector.ok());
  collector.start();

  const int w = 256, h = 192, k = 2;
  const auto es = tiny_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  obs::MetricsRegistry reg;
  core::SocketWallOptions so;
  so.metrics = &reg;
  so.telemetry_port = collector.endpoint().port;
  so.telemetry_interval_s = 0.05;
  core::run_socket_wall(geo, k, es, nullptr, so);
  // The final flush + Bye datagrams may still be queued on the collector
  // socket when the wall returns; let the receive loop drain them.
  ASSERT_TRUE(eventually(
      [&] { return collector.all_nodes_seen() && collector.all_bye(); }));
  collector.stop();

  // One process hosting all 7 nodes, seen and said goodbye.
  EXPECT_EQ(collector.k(), 2);
  EXPECT_EQ(collector.tiles(), 4);
  EXPECT_EQ(collector.nodes_expected(), 7);
  EXPECT_TRUE(collector.all_nodes_seen());
  EXPECT_TRUE(collector.all_bye());
  const auto procs = collector.processes();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].nodes, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_GT(procs[0].span_events, 0u);
  EXPECT_GT(collector.merged_metrics().counter_total("pictures_decoded"), 0u);

  const std::string path = ::testing::TempDir() + "merged_wall_trace.json";
  ASSERT_TRUE(collector.write_merged_trace(path));
  const std::string trace = slurp(path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("pic_flow"), std::string::npos);  // cross-pid flows
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  EXPECT_NE(trace.find("rebaseNs"), std::string::npos);
}

}  // namespace
}  // namespace pdw
