// Cluster telemetry sideband: collector half.
//
// One Collector per wall gathers the TelemetryExporter streams of every
// wall_node process: it folds the per-process metric absolutes into one
// merged MetricsSnapshot (the same type wall_top already renders), and keeps
// every received span so write_merged_trace() can emit ONE Perfetto-loadable
// Chrome trace of the whole multi-process wall. Spans arrive in host
// steady-clock ns, which every process of the wall shares, so the trace
// rebases them all by one constant (the earliest span), and flow events are
// synthesized from the picture tags to link root -> splitter -> decoder
// across pids. The collector only receives; it never sends.
//
// Hosted by `wall_top --remote` (live dashboard + trace at exit) or
// in-process by tests and bench_socket_wall.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace pdw::obs {

class Collector {
 public:
  // Bounds on what one collector keeps, whatever arrives on its port. A
  // frame with a new token once kMaxProcesses processes are known is
  // dropped whole; a metric record with a new (family, node, stream, kind)
  // key once its process holds kMaxMetricsPerProcess keys is dropped.
  static constexpr size_t kMaxProcesses = 256;
  static constexpr size_t kMaxMetricsPerProcess = 8192;

  // Binds 127.0.0.1:port (0: ephemeral; endpoint() reports the bound port).
  // A port already in use leaves the collector !ok().
  explicit Collector(uint16_t port = 0);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  bool ok() const { return sock_.ok(); }
  net::Endpoint endpoint() const { return sock_.local(); }

  // Background receive loop. stop() joins; idempotent.
  void start();
  void stop();
  // Drain pending datagrams on the caller's thread instead (tests).
  void poll();

  struct ProcessInfo {
    uint64_t token = 0;
    uint32_t os_pid = 0;
    std::vector<int> nodes;  // proto node ids hosted by the process
    bool bye = false;
    uint64_t datagrams = 0;
    uint64_t bytes = 0;
    uint64_t span_events = 0;
    uint64_t seq_gaps = 0;  // frames lost on the sideband
  };
  std::vector<ProcessInfo> processes() const;

  // Wall shape from Hello records (0 until the first Hello).
  int k() const;
  int tiles() const;
  int nodes_expected() const;
  // Sorted union of hosted node ids across processes.
  std::vector<int> nodes_seen() const;
  bool all_nodes_seen() const;  // every id in [0, nodes_expected) announced
  bool all_bye() const;         // every known process said goodbye

  // Per-process metric absolutes folded into one snapshot: counters and
  // histograms sum across processes, a gauge takes the per-label sum (label
  // sets are disjoint per node in practice).
  MetricsSnapshot merged_metrics() const;

  uint64_t datagrams_received() const;
  uint64_t bytes_received() const;
  // What the caps above refused: whole frames, and single metric records.
  uint64_t dropped_frames() const;
  uint64_t dropped_metrics() const;

  // Write the merged multi-process Chrome trace: every timestamp is its
  // host steady-clock instant minus the earliest span's ("rebaseNs" in
  // otherData). Returns false on I/O error.
  bool write_merged_trace(const std::string& path) const;

 private:
  struct Proc {
    ProcessInfo info;
    bool seq_seen = false;
    uint32_t last_seq = 0;
    std::map<std::tuple<std::string, int, int, int>, MetricRecord> metrics;
    std::vector<SpanRecord> spans;  // host steady-clock ns
  };

  void handle_datagram(const uint8_t* data, size_t len);
  void run_loop();

  net::UdpSocket sock_;

  mutable std::mutex mu_;
  std::map<uint64_t, Proc> procs_;
  int k_ = 0, tiles_ = 0, nodes_expected_ = 0;
  uint64_t datagrams_ = 0, bytes_ = 0;
  uint64_t dropped_frames_ = 0, dropped_metrics_ = 0;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace pdw::obs
