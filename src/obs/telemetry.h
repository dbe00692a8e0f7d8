// Cluster telemetry sideband: exporter half.
//
// Every wall_node process runs one TelemetryExporter that periodically ships
// its MetricsRegistry (changed values only, sent as absolutes so UDP loss or
// duplication never corrupts a counter) and the new tail of its span Tracer
// to a Collector (obs/collector.h) over a tiny versioned UDP wire format.
// Each flush also runs one NTP-style clock probe: the exporter stamps t0,
// the collector echoes it with its own receive/send stamps (t1, t2), and the
// exporter stamps arrival (t3). offset = ((t1-t0)+(t2-t3))/2 maps this
// process's tracer clock domain onto the collector's; the minimum-RTT sample
// wins (its error is bounded by rtt/2), and a Karn filter — only replies
// matching an outstanding probe seq count, probes are never reused — keeps
// delayed or duplicated replies from polluting the estimate, exactly like
// the PR-8 RTO estimator ignores retransmitted acks.
//
// Exporter and collector speak through the same loopback UdpSocket as the
// transport (common/udp.h), which sits below both obs and net.
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
inline constexpr uint16_t kTelemetryVersion = 2;

enum class TelemetryRecordType : uint8_t {
  kStrings = 1,     // per-frame string table (must precede users)
  kHello = 2,       // process identity: os pid, wall shape, hosted nodes
  kMetric = 3,      // one metric, absolute value
  kSpans = 4,       // batch of trace events (local clock domain)
  kClockProbe = 5,  // exporter -> collector: seq, t0
  kClockReply = 6,  // collector -> exporter: seq, t0 echo, t1, t2
  kOffset = 7,      // exporter's current offset estimate
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
  uint64_t ts_ns = 0;  // sender's tracer clock domain
  uint64_t dur_ns = 0;
  uint32_t pic = 0xFFFFFFFFu;
};

struct ClockProbeRecord {
  uint32_t seq = 0;
  uint64_t t0 = 0;  // exporter clock at send
};

struct ClockReplyRecord {
  uint32_t seq = 0;
  uint64_t t0 = 0;  // echoed
  uint64_t t1 = 0;  // collector clock at receive
  uint64_t t2 = 0;  // collector clock at send
};

struct OffsetRecord {
  int64_t offset_ns = 0;  // collector_clock = local_clock + offset
  uint64_t min_rtt_ns = 0;
  uint32_t samples = 0;
  uint8_t valid = 0;
};

struct TelemetryFrame {
  uint64_t token = 0;  // per-process random id (stable for process lifetime)
  uint32_t seq = 0;    // per-sender frame counter (gap = sideband loss)
  std::optional<HelloRecord> hello;
  std::vector<MetricRecord> metrics;
  std::vector<SpanRecord> spans;
  std::vector<ClockProbeRecord> probes;
  std::vector<ClockReplyRecord> replies;
  std::optional<OffsetRecord> offset;
  bool bye = false;
};

// Serialize a frame (builds the string table internally).
std::vector<uint8_t> encode_frame(const TelemetryFrame& frame);

// Parse a datagram. Returns false (leaving *out unspecified) on anything
// malformed — wrong magic/version, truncated records, bad indexes. Never
// reads out of bounds.
bool decode_frame(const uint8_t* data, size_t len, TelemetryFrame* out);

// ---------------------------------------------------------------------------
// Clock-offset estimation.
// ---------------------------------------------------------------------------

// Accumulates NTP-style probe samples; the minimum-RTT sample wins. For a
// sample with round-trip time rtt, the symmetric-path estimate is wrong by
// at most rtt/2 (all asymmetry on one leg), so |error| <= min_rtt/2 — the
// acceptance bound in tests is the looser 2x min_rtt.
class ClockEstimator {
 public:
  // t0/t3: local clock at probe send / reply receive. t1/t2: remote clock at
  // probe receive / reply send. Garbage samples (negative RTT after clock
  // arithmetic) are ignored.
  void add_sample(uint64_t t0, uint64_t t1, uint64_t t2, uint64_t t3);

  bool valid() const { return samples_ > 0; }
  // remote_clock = local_clock + offset_ns().
  int64_t offset_ns() const { return offset_ns_; }
  uint64_t min_rtt_ns() const { return valid() ? min_rtt_ns_ : 0; }
  uint32_t samples() const { return samples_; }

 private:
  int64_t offset_ns_ = 0;
  uint64_t min_rtt_ns_ = ~uint64_t(0);
  uint32_t samples_ = 0;
};

// ---------------------------------------------------------------------------
// Exporter.
// ---------------------------------------------------------------------------

struct TelemetryExporterConfig {
  net::Endpoint collector{};           // where frames go
  double interval_s = 0.2;             // background flush period
  double probe_wait_s = 0.01;          // how long flush() blocks for a reply
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

  // One export round: drain pending probe replies, send a fresh clock probe
  // (briefly waiting for its reply), then ship Hello + changed metrics +
  // new spans + the current offset estimate.
  void flush();
  // Drain probe replies without exporting (stamps t3 at read time, so only
  // meaningful when replies are already queued; flush() waits properly).
  void poll_replies();

  ClockEstimator clock() const;
  uint64_t token() const { return token_; }
  // Frames the socket failed to send (counted, never silently dropped).
  uint64_t send_failures() const { return sock_.send_failures(); }
  net::Endpoint local_endpoint() const { return sock_.local(); }
  // Exporter clock (the tracer's domain — spans and probes agree).
  uint64_t local_now_ns() const;

 private:
  struct PendingProbe {
    uint64_t t0 = 0;
  };

  Tracer& tracer() const;
  // Stamp Hello and the current offset estimate into `frame`.
  void identify(TelemetryFrame* frame) const;
  void send_frame(TelemetryFrame* frame);
  void run_loop();
  void handle_reply(const ClockReplyRecord& r, uint64_t t3);

  TelemetryExporterConfig cfg_;
  uint64_t token_ = 0;
  net::UdpSocket sock_;

  mutable std::mutex mu_;
  ClockEstimator clock_;
  std::map<uint32_t, PendingProbe> outstanding_;  // Karn filter
  uint32_t next_probe_seq_ = 1;
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
