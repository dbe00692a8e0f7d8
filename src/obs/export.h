// Exporters for the telemetry layer (obs/metrics.h, obs/trace.h):
//
//   * write_chrome_trace() — Chrome trace-event JSON ("traceEvents" array),
//     loadable in Perfetto / chrome://tracing. Real-time spans from the
//     threaded or lockstep engines and virtual-time spans from the DES land
//     in the same file as separate process groups;
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

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pdw::obs {

// `s` as the body of a JSON string literal (quotes, backslashes and control
// characters escaped).
std::string json_escape(const std::string& s);

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
