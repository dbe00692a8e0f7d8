// Exporters for the telemetry layer (obs/metrics.h, obs/trace.h):
//
//   * write_trace_events() — the one Chrome trace-event JSON writer
//     ("traceEvents" array), loadable in Perfetto / chrome://tracing. Both
//     write_chrome_trace() (one process's Tracer: real-time spans from the
//     threaded or lockstep engines and virtual-time spans from the DES land
//     in the same file as separate process groups) and the collector's
//     merged multi-process trace (obs/collector.h) go through it;
//   * metrics_json() / write_metrics_json() — point-in-time snapshot of every
//     registered metric as JSON;
//   * metrics_report() — aligned text_table end-of-run report;
//   * fig7_breakdown() / print_fig7() — the paper's Fig. 7 per-decoder stage
//     shares (Work / Serve / Receive / Wait / Ack) recomputed from traced
//     spans instead of bespoke bench timers.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw::obs {

// `s` as the body of a JSON string literal (quotes, backslashes and control
// characters escaped).
std::string json_escape(const std::string& s);

// One event for write_trace_events(): a complete span ('X') or instant
// ('i'), tagged with its picture when `pic` is not Tracer::kNoPic, or one
// end of a picture flow ('s' start, 'f' finish) paired by `flow_id`.
struct TraceJsonEvent {
  std::string name;
  char ph = 'X';
  int32_t pid = 0;
  int32_t tid = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t pic = Tracer::kNoPic;
  uint64_t flow_id = 0;
};

// Write `events` in order, after process_name metadata for every entry of
// `process_names`, then `other_data` (the members of a JSON object, without
// braces) as "otherData". Returns false if the file could not be written.
bool write_trace_events(const std::string& path,
                        const std::map<int, std::string>& process_names,
                        const std::vector<TraceJsonEvent>& events,
                        const std::string& other_data);

// Serialize all collected events. `pid_name`, when given, maps a pid to a
// human-readable lane name emitted as process_name metadata. Returns false
// if the file could not be written.
bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const std::function<std::string(int)>& pid_name = {});

std::string metrics_json(const MetricsSnapshot& snap);
bool write_metrics_json(const MetricsSnapshot& snap, const std::string& path);

// Aligned table of every metric in the snapshot.
void metrics_report(const MetricsSnapshot& snap, std::FILE* out);

// Fraction of a decoder's traced time spent in each Fig. 7 category, per pid
// in [pid_min, pid_max]. Shares are of the per-pid traced total, so they sum
// to ~1 for a decoder that only emits the five canonical decoder spans.
// `pid_offset` is subtracted from the returned map keys, so callers tracing
// under shifted pid lanes (sim::kSimTracePidBase) get proto node ids back
// instead of carrying the shift into every consumer.
struct StageShare {
  double work = 0, serve = 0, receive = 0, wait = 0, ack = 0;
  uint64_t total_ns = 0;
};
std::map<int, StageShare> fig7_breakdown(const Tracer& tracer, int pid_min,
                                         int pid_max, int pid_offset = 0);

// Print the Fig. 7 table (keys are node ids — see fig7_breakdown).
void print_fig7(const std::map<int, StageShare>& shares, std::FILE* out);

}  // namespace pdw::obs
