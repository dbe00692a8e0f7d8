#include "obs/export.h"

#include <cinttypes>
#include <cstring>

#include "common/text_table.h"

namespace pdw::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (uint8_t(c) < 0x20)
          out += format("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

namespace {

std::string label_text(const Labels& l) {
  std::string out;
  if (l.node >= 0) out += format("node=%d", l.node);
  if (l.stream >= 0) {
    if (!out.empty()) out += ",";
    out += format("stream=%d", l.stream);
  }
  return out;
}

}  // namespace

bool write_trace_events(const std::string& path,
                        const std::map<int, std::string>& process_names,
                        const std::vector<TraceJsonEvent>& events,
                        const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  const char* sep = "";
  for (const auto& [pid, name] : process_names) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 sep, pid, json_escape(name).c_str());
    sep = ",\n";
  }
  for (const TraceJsonEvent& e : events) {
    const bool flow = e.ph == 's' || e.ph == 'f';
    std::fprintf(f, "%s{\"name\":\"%s\",%s\"ph\":\"%c\"", sep,
                 json_escape(e.name).c_str(), flow ? "\"cat\":\"pic\"," : "",
                 e.ph);
    sep = ",\n";
    if (e.ph == 'i') std::fputs(",\"s\":\"t\"", f);
    if (e.ph == 'f') std::fputs(",\"bp\":\"e\"", f);
    if (flow) std::fprintf(f, ",\"id\":%" PRIu64, e.flow_id);
    std::fprintf(f, ",\"pid\":%d,\"tid\":%d,\"ts\":%.3f", int(e.pid),
                 int(e.tid), double(e.ts_ns) / 1e3);
    if (e.ph == 'X') std::fprintf(f, ",\"dur\":%.3f", double(e.dur_ns) / 1e3);
    if (!flow && e.pic != Tracer::kNoPic)
      std::fprintf(f, ",\"args\":{\"pic\":%u}", e.pic);
    std::fputs("}", f);
  }
  std::fprintf(f, "\n],\"otherData\":{%s}}\n", other_data.c_str());
  return std::fclose(f) == 0;
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const std::function<std::string(int)>& pid_name) {
  std::vector<TraceJsonEvent> events;
  std::map<int, std::string> names;
  for (const TraceEvent& e : tracer.collect()) {
    if (!e.name) continue;
    events.push_back(TraceJsonEvent{e.name, e.ph, e.pid, e.tid, e.ts_ns,
                                    e.dur_ns, e.arg_pic, 0});
    if (pid_name && !names.count(e.pid)) names[e.pid] = pid_name(e.pid);
  }
  return write_trace_events(
      path, names, events,
      format("\"droppedEvents\":%" PRIu64, tracer.dropped()));
}

std::string metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"metrics\":[\n";
  bool first = true;
  for (const MetricValue& v : snap.values) {
    if (!first) out += ",\n";
    first = false;
    out += format("{\"family\":\"%s\",\"node\":%d,\"stream\":%d",
                  json_escape(v.family).c_str(), v.labels.node,
                  v.labels.stream);
    switch (v.kind) {
      case MetricKind::kCounter:
        out += format(",\"kind\":\"counter\",\"value\":%" PRIu64, v.count);
        break;
      case MetricKind::kGauge:
        out += format(",\"kind\":\"gauge\",\"value\":%" PRId64, v.gauge);
        break;
      case MetricKind::kHistogram:
        out += format(",\"kind\":\"histogram\",\"count\":%" PRIu64
                      ",\"sum\":%" PRIu64 ",\"p50\":%" PRIu64
                      ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"buckets\":[",
                      v.count, v.sum, v.p50, v.p95, v.p99);
        for (size_t i = 0; i < v.buckets.size(); ++i)
          out += format("%s[%" PRIu64 ",%" PRIu64 "]", i ? "," : "",
                        v.buckets[i].first, v.buckets[i].second);
        out += "]";
        break;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool write_metrics_json(const MetricsSnapshot& snap, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = metrics_json(snap);
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

void metrics_report(const MetricsSnapshot& snap, std::FILE* out) {
  TextTable t({"metric", "labels", "value", "p50", "p95", "p99"});
  for (const MetricValue& v : snap.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        t.add_row({v.family, label_text(v.labels),
                   format("%" PRIu64, v.count), "", "", ""});
        break;
      case MetricKind::kGauge:
        t.add_row({v.family, label_text(v.labels),
                   format("%" PRId64, v.gauge), "", "", ""});
        break;
      case MetricKind::kHistogram:
        t.add_row({v.family, label_text(v.labels),
                   format("n=%" PRIu64, v.count), format("%" PRIu64, v.p50),
                   format("%" PRIu64, v.p95), format("%" PRIu64, v.p99)});
        break;
    }
  }
  t.print(out);
}

std::map<int, StageShare> fig7_breakdown(const Tracer& tracer, int pid_min,
                                         int pid_max, int pid_offset) {
  std::map<int, StageShare> shares;
  for (const auto& [key, agg] : tracer.aggregate()) {
    const auto& [name, pid] = key;
    if (pid < pid_min || pid > pid_max) continue;
    StageShare& s = shares[pid - pid_offset];
    double* slot = nullptr;
    if (name == span::kDecodeSp)
      slot = &s.work;
    else if (name == span::kServeSp)
      slot = &s.serve;
    else if (name == span::kRecvSp)
      slot = &s.receive;
    else if (name == span::kWaitHalo)
      slot = &s.wait;
    else if (name == span::kAckPic)
      slot = &s.ack;
    if (!slot) continue;
    *slot += double(agg.total_ns);
    s.total_ns += agg.total_ns;
  }
  for (auto& [pid, s] : shares) {
    if (s.total_ns == 0) continue;
    const double total = double(s.total_ns);
    s.work /= total;
    s.serve /= total;
    s.receive /= total;
    s.wait /= total;
    s.ack /= total;
  }
  return shares;
}

void print_fig7(const std::map<int, StageShare>& shares, std::FILE* out) {
  TextTable t({"node", "Work%", "Serve%", "Receive%", "Wait%", "Ack%",
               "total_ms"});
  for (const auto& [pid, s] : shares)
    t.add_row({format("%d", pid), format("%.1f", 100 * s.work),
               format("%.1f", 100 * s.serve), format("%.1f", 100 * s.receive),
               format("%.1f", 100 * s.wait), format("%.1f", 100 * s.ack),
               format("%.2f", double(s.total_ns) / 1e6)});
  t.print(out);
}

}  // namespace pdw::obs
