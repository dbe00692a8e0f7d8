// Cluster telemetry sideband: exporter half.
//
// Every wall_node process runs one TelemetryExporter that periodically ships
// its MetricsRegistry (changed values only, sent as absolutes so UDP loss or
// duplication never corrupts a counter) and the new tail of its span Tracer
// to a Collector (obs/collector.h) over a tiny versioned UDP wire format.
// Span timestamps leave as host steady-clock ns (the tracer's epoch plus
// the span's offset from it). Exporter and collector speak through the same
// loopback UdpSocket as the transport (common/udp.h), which sits below both
// obs and net, so every process of a wall runs on one host and reads one
// steady clock: spans from different processes compare exactly, with no
// clock-offset estimation. The exporter only sends; the collector only
// receives.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/udp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw::obs {

// ---------------------------------------------------------------------------
// Wire format. One datagram = one frame: a fixed header, then a sequence of
// (type, length, payload) records. String-valued names (metric families,
// span names) go through a per-frame string table so repeated names cost two
// bytes. Every frame is self-contained — the collector can decode any subset
// of frames in any order; "delta" export means only-changed *selection*, the
// values themselves are absolutes.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kTelemetryMagic = 0x54574450u;  // "PDWT"
inline constexpr uint16_t kTelemetryVersion = 3;

enum class TelemetryRecordType : uint8_t {
  kStrings = 1,     // per-frame string table (must precede users)
  kHello = 2,       // process identity: os pid, wall shape, hosted nodes
  kMetric = 3,      // one metric, absolute value
  kSpans = 4,       // batch of trace events (host steady-clock ns)
  kBye = 8,         // graceful shutdown marker
};

struct HelloRecord {
  uint32_t os_pid = 0;
  uint16_t k = 0;      // splitters
  uint16_t tiles = 0;  // decoders
  uint16_t nodes = 0;  // total wall size (1 + k + tiles)
  std::vector<uint16_t> hosted;  // proto node ids hosted by this process
};

struct MetricRecord {
  std::string family;
  int16_t node = -1;
  int16_t stream = -1;
  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;  // counter value / histogram count
  int64_t gauge = 0;
  uint64_t sum = 0;
  // Non-empty histogram buckets as (bucket index, count).
  std::vector<std::pair<uint8_t, uint64_t>> buckets;
};

// A decoded trace event; names are owned strings (the sender's static
// pointers mean nothing across processes).
struct SpanRecord {
  std::string name;
  char ph = 'X';
  int32_t pid = 0;
  int32_t tid = 0;
  uint64_t ts_ns = 0;  // host steady-clock ns
  uint64_t dur_ns = 0;
  uint32_t pic = 0xFFFFFFFFu;
};

struct TelemetryFrame {
  uint64_t token = 0;  // per-process random id (stable for process lifetime)
  uint32_t seq = 0;    // per-sender frame counter (gap = sideband loss)
  std::optional<HelloRecord> hello;
  std::vector<MetricRecord> metrics;
  std::vector<SpanRecord> spans;
  bool bye = false;
};

// Serialize a frame (builds the string table internally).
std::vector<uint8_t> encode_frame(const TelemetryFrame& frame);

// Parse a datagram. Returns false (leaving *out unspecified) on anything
// malformed — wrong magic/version, truncated records, bad indexes. Never
// reads out of bounds.
bool decode_frame(const uint8_t* data, size_t len, TelemetryFrame* out);

// ---------------------------------------------------------------------------
// Exporter.
// ---------------------------------------------------------------------------

struct TelemetryExporterConfig {
  net::Endpoint collector{};           // where frames go
  double interval_s = 0.2;             // background flush period
  MetricsRegistry* metrics = nullptr;  // nullptr: global()
  Tracer* tracer = nullptr;            // nullptr: Tracer::global()
  // Wall shape announced in Hello (0 = unknown).
  uint16_t k = 0;
  uint16_t tiles = 0;
  uint16_t nodes = 0;
  std::vector<uint16_t> hosted;  // proto node ids hosted by this process
};

class TelemetryExporter {
 public:
  explicit TelemetryExporter(TelemetryExporterConfig cfg);
  ~TelemetryExporter();
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Start the background flush thread. Optional — tests drive flush()
  // directly for determinism.
  void start();
  // Final flush + Bye frame, then join the background thread. Idempotent.
  void stop();

  // One export round: ship Hello + changed metrics + new spans, each span
  // stamped in host steady-clock ns (Tracer::epoch_ns() + its ts_ns).
  void flush();

  uint64_t token() const { return token_; }
  // Frames the socket failed to send (counted, never silently dropped).
  uint64_t send_failures() const { return sock_.send_failures(); }
  net::Endpoint local_endpoint() const { return sock_.local(); }

 private:
  Tracer& tracer() const;
  // Stamp Hello into `frame`.
  void identify(TelemetryFrame* frame) const;
  void send_frame(TelemetryFrame* frame);
  void run_loop();

  TelemetryExporterConfig cfg_;
  uint64_t token_ = 0;
  net::UdpSocket sock_;

  std::mutex mu_;
  uint32_t next_frame_seq_ = 1;
  std::map<std::tuple<std::string, int, int, int>,
           std::tuple<uint64_t, uint64_t, int64_t>>
      last_sent_;  // metric key -> (count, sum, gauge) last exported
  std::vector<uint64_t> trace_cursors_;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace pdw::obs
